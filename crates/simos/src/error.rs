//! Error type for the fallible syscall variants.

use simstore::DeviceError;

/// Errors surfaced by the `try_*` syscall variants ([`crate::Os::try_read_charge`],
/// [`crate::Os::try_readahead`], [`crate::Os::try_readahead_info`]) and by
/// [`crate::Os::read_batch`].
///
/// It is the error type of the [`crate::MayFault`] discipline. The
/// [`crate::NeverFault`] variants (`read_charge`, `write_charge`,
/// `readahead`, `readahead_info`, `read_batch::<NeverFault>`) never consult
/// the device's transient-EIO schedule: their error type is uninhabited.
/// Of them, only `read_batch` checks
/// [`crate::OsConfig::readahead_info_supported`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoError {
    /// Transient I/O failure (an injected device EIO). Retrying draws a
    /// fresh fault decision and may succeed.
    Io,
    /// The kernel does not implement the requested operation — models
    /// running CROSS-LIB on a stock kernel without the `readahead_info`
    /// syscall. Permanent for the life of the OS instance.
    Unsupported,
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io => write!(f, "transient I/O error (EIO)"),
            IoError::Unsupported => write!(f, "operation not supported by this kernel (ENOSYS)"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<DeviceError> for IoError {
    fn from(err: DeviceError) -> Self {
        match err {
            DeviceError::TransientIo => IoError::Io,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_error_converts_to_transient_io() {
        assert_eq!(IoError::from(DeviceError::TransientIo), IoError::Io);
    }

    #[test]
    fn display_names_the_errno() {
        assert!(IoError::Io.to_string().contains("EIO"));
        assert!(IoError::Unsupported.to_string().contains("ENOSYS"));
    }
}
