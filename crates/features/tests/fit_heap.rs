//! Heap regression test for the topic fit: a counting global allocator
//! measures what `PostTopics::fit_prefix` and `LdaModel::train_view` hold
//! and allocate on a generated small forum.
//!
//! The counters are process-wide, so this binary holds exactly one
//! test: a second one running in parallel would count into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use forumcast_features::{PostTopics, TokenizedPosts};
use forumcast_synth::SynthConfig;
use forumcast_text::InternedDocs;
use forumcast_topics::{LdaConfig, LdaModel};

/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Highest `LIVE` since [`measure`] last reset it.
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Bytes ever allocated (a growing `realloc` counts its growth).
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grow(bytes: usize) {
    ALLOCATED.fetch_add(bytes, Relaxed);
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
/// when it started, and the bytes it allocated.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let allocated = ALLOCATED.load(Relaxed);
    let out = f();
    (
        out,
        PEAK.load(Relaxed) - base,
        ALLOCATED.load(Relaxed) - allocated,
    )
}

/// Peak heap of `fit_prefix` above its inputs, per corpus token.
/// Sweeping the interned token stream in place measures 8.5 B/token
/// here (17,228 tokens, 459 posts, K = 8); the pruned corpus
/// copy it replaced measured 14.6 B/token, and the nested
/// `Vec<BagOfWords>` corpus before that, which `train` copied into a
/// second token buffer, 36.7 B/token. The bound is the measured value
/// plus 1.9 B/token of margin.
const FIT_PEAK_BYTES_PER_TOKEN: f64 = 10.4;

#[test]
fn topic_fit_heap_stays_within_its_bounds() {
    let ds = SynthConfig::small().with_seed(11).generate();
    let (clean, _) = ds.preprocess();
    let threads = clean.threads();
    let posts = TokenizedPosts::new(threads);
    let config = LdaConfig::new(8).with_iterations(3);

    // The documents `fit_prefix` trains on: every post, pruned as it
    // prunes.
    let mut docs = InternedDocs::new();
    for t in threads {
        for p in t.posts() {
            docs.push_text(&p.body.text);
        }
    }
    let (_, view) = docs.prefix_view(docs.num_docs(), 2, 0.6);
    let tokens = view.num_tokens();
    assert!(
        tokens > 10_000,
        "the forum is too small to measure: {tokens} tokens"
    );

    let (topics, peak, _) = measure(|| PostTopics::fit_prefix(&posts, threads.len(), &config));
    assert_eq!(topics.model().num_docs(), view.num_docs());
    let per_token = peak as f64 / tokens as f64;
    assert!(
        per_token <= FIT_PEAK_BYTES_PER_TOKEN,
        "fit_prefix peaked {peak} B above its inputs: {per_token:.1} B per corpus token \
         ({tokens} tokens, {} posts), bound {FIT_PEAK_BYTES_PER_TOKEN}",
        view.num_docs()
    );
    drop(topics);

    // `train_view` reads the stream ids in place: beyond the model it
    // returns, it allocates its sampling state (one topic per token,
    // the count tables and per-topic rows) and no copy of the ids.
    let (model, _, allocated) = measure(|| LdaModel::train_view(&view, &config));
    let (k, d, v) = (8, view.num_docs(), view.num_words());
    let model_bytes = 8 * (k * v + d * k);
    // One `u16` topic per token.
    let state_bytes = 2 * tokens + 4 * (d * k + v * k) + 8 * (5 * k + 1);
    let ids_copy = 4 * tokens;
    assert!(
        allocated < model_bytes + state_bytes + ids_copy / 2,
        "train_view allocated {allocated} B: model {model_bytes} B, sampling state \
         {state_bytes} B, so {} B more, near a copy of the {ids_copy} B of corpus ids",
        allocated - model_bytes - state_bytes
    );
    drop(model);
}
