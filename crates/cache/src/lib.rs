//! # mqo-cache — black-box prompt caching and prefix analysis
//!
//! The paper's strategies cut tokens *inside* each prompt; this crate cuts
//! tokens *across* prompts, on the client side of the black-box boundary,
//! where a serving deployment amortizes repeated and overlapping traffic:
//!
//! * [`mod@fingerprint`] — canonical prompt identity: a 64-bit FNV-1a hash of
//!   `(model profile name, rendered prompt)`. Two requests with the same
//!   fingerprint are the same request for caching purposes.
//! * [`ResponseCache`] — a bounded LRU response cache with explicit
//!   **round-based invalidation**: [`ResponseCache::advance_epoch`] marks
//!   every existing entry stale, so prompts rendered before a boosting
//!   round folded in new pseudo-labels are never served from cache after
//!   it. (Content-addressed fingerprints already make a *re-rendered*
//!   prompt miss; the epoch guards the identical-text-across-rounds case.)
//! * [`PrefixStore`] — an **analysis tool**: a radix-style trie over
//!   rendered prompt *segments* measuring how many leading tokens each
//!   prompt shares with traffic already seen, the reuse a white-box prefix
//!   cache (vLLM/Hydragen-style) would realize. The black box hides its KV
//!   cache, so this is measured, never exploited, and only offline: the
//!   `prefix_sharing` experiment (§II-C) is its one user, and the serving
//!   stack does not feed it.
//! * [`common_prefix_bytes`] / [`common_prefix_tokens`] — the shared
//!   prefix-length helpers the same analysis uses; the token variant is
//!   exact for the workspace tokenizer (a partial trailing subword is not
//!   counted, since a serving cache could not reuse it).
//! * [`RoundInvalidator`] — an [`mqo_obs::EventSink`] adapter that calls
//!   [`ResponseCache::advance_epoch`] whenever a boosting round completes,
//!   so invalidation wires through the existing telemetry stream instead
//!   of a bespoke callback channel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fingerprint;
pub mod lru;
pub mod prefix;

pub use fingerprint::{fingerprint, Fingerprint};
pub use lru::{CacheStats, ResponseCache, RoundInvalidator};
pub use prefix::{
    common_prefix_bytes, common_prefix_tokens, segment_paragraphs, PrefixReuse, PrefixStore,
};
