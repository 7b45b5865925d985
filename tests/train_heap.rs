//! Heap regression test for `ResponsePredictor::train`: a counting
//! global allocator measures the peak the trainer holds above its
//! inputs.
//!
//! The counters are process-wide, so this binary holds exactly one
//! test: a second one running in parallel would count into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use forumcast::core::ThreadObservation;
use forumcast::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Highest `LIVE` since [`measure`] last reset it.
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method hands its arguments unchanged to `System` and
// returns what `System` returns; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`; returns its result, its peak heap above what was live
/// when it started, and the heap its result still holds.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    let peak = PEAK.load(Relaxed) - base;
    (out, peak, LIVE.load(Relaxed).saturating_sub(base))
}

const DIM: usize = 34;
const THREADS: usize = 300;

/// On this training set (x86-64) the bound below is 968,432 B: a
/// 912,000-B copy of the rows and a 56,432-B model. `train` peaks at
/// 597,344 B above its inputs. It peaked at 1,144,544 B when it kept a
/// signed-log copy of every answer and vote row, made only to fit the
/// normalizer, alive through all three trainers. The vote trainer no
/// longer copies its non-validation rows (it lends them to the epoch
/// loop); that copy was not held at the peak, so the peak is unchanged.
#[test]
fn training_peaks_within_one_normalized_copy_of_its_rows() {
    // The shape the route workload trains on: per thread, two answers
    // (answer, vote and timing rows) and two sampled non-answerers
    // (answer and timing rows).
    let mut rng = StdRng::seed_from_u64(0x7EA9);
    let mut row = || -> Vec<f64> { (0..DIM).map(|_| rng.gen_range(0.0..50.0)).collect() };
    let mut ts = TrainingSet::new(DIM);
    for i in 0..THREADS {
        let answers: Vec<(Vec<f64>, f64)> = (0..2).map(|j| (row(), 1.0 + j as f64)).collect();
        let non_answerers: Vec<Vec<f64>> = (0..2).map(|_| row()).collect();
        for (x, _) in &answers {
            ts.push_answer(x.clone(), true);
            ts.push_vote(x.clone(), (i % 7) as f64);
        }
        for x in &non_answerers {
            ts.push_answer(x.clone(), false);
        }
        ts.push_timing_thread(answers, non_answerers, 48.0, 1000);
    }

    // Memory does not depend on the epoch count; two keep the test fast.
    let mut config = TrainConfig::fast();
    config.answer.epochs = 2;
    config.votes.epochs = 2;
    config.timing.epochs = 2;
    // A first run leaves whatever the process sets up once outside the
    // measured one, whose remaining heap is then the model alone.
    drop(ResponsePredictor::train(&ts, &config));
    let (model, peak, model_bytes) = measure(|| ResponsePredictor::train(&ts, &config));
    assert!(model.predict_answer(&[1.0; DIM]).is_finite());

    // One normalized copy of every row: its `DIM` values, plus the
    // slot that holds it in a row list. Per thread: 4 answer-task
    // rows, 2 vote rows, and a `ThreadObservation` holding 2 answer
    // rows with their delays and 2 non-answerer rows.
    let values = 8 * DIM;
    let row = values + size_of::<Vec<f64>>();
    let timed_row = values + size_of::<(Vec<f64>, f64)>();
    let copy = THREADS * (4 * row + 2 * row + 2 * timed_row + 2 * row)
        + THREADS * size_of::<ThreadObservation>();
    let bound = copy + model_bytes;
    assert!(
        peak <= bound,
        "train peaked {peak} B above its inputs; one normalized copy of the rows is {copy} B \
         and the model {model_bytes} B, so the bound is {bound} B"
    );
}
