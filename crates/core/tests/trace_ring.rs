//! Race gate for the decision-trace ring: one mutex-guarded ring that
//! assigns `seq` under its lock. Cheap enough to loop (CI runs it 10x).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use crossprefetch::{InodeId, TraceEventKind, Tracer};

#[test]
fn concurrent_emitters_keep_the_newest_by_seq() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 5_000;
    const CAPACITY: usize = 64;
    let tracer = Arc::new(Tracer::new(CAPACITY));
    tracer.set_enabled(true);
    // All five threads start together, so the reader's snapshots overlap
    // the emitters' pushes and evictions.
    let start = Arc::new(Barrier::new(THREADS as usize + 1));
    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let (tracer, start, done) = (Arc::clone(&tracer), Arc::clone(&start), Arc::clone(&done));
        std::thread::spawn(move || {
            start.wait();
            while !done.load(Ordering::Relaxed) {
                let seqs: Vec<u64> = tracer.snapshot().iter().map(|e| e.seq).collect();
                assert!(seqs.len() <= CAPACITY);
                let mut unique = seqs.clone();
                unique.sort_unstable();
                unique.dedup();
                assert_eq!(unique.len(), seqs.len(), "a seq kept twice");
            }
        })
    };
    let emitters: Vec<_> = (0..THREADS)
        .map(|t| {
            let (tracer, start) = (Arc::clone(&tracer), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for i in 0..PER_THREAD {
                    let kind = TraceEventKind::LibEvict {
                        ino: InodeId(t),
                        pages: i,
                    };
                    tracer.emit(t * PER_THREAD + i, kind);
                }
            })
        })
        .collect();
    for emitter in emitters {
        emitter.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    reader.join().unwrap();

    let emitted = THREADS * PER_THREAD;
    let events = tracer.snapshot();
    assert_eq!(events.len() as u64 + tracer.dropped(), emitted);
    let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    let newest: Vec<u64> = (emitted - CAPACITY as u64..emitted).collect();
    assert_eq!(seqs, newest, "the ring keeps exactly the newest by seq");
}
