//! # mqo-llm — language-model clients, prompts, and the simulated LLM
//!
//! The "LLMs as predictors" paradigm treats the LLM as a black box that
//! maps a prompt string to a completion string. This crate reproduces that
//! interface faithfully:
//!
//! * [`LanguageModel`] — the object-safe client trait a real HTTP client
//!   (OpenAI, Anthropic, …) would implement; everything downstream
//!   (predictors, MQO strategies, benches) is generic over it.
//! * [`prompt`] — the exact prompt templates of Table III (vanilla
//!   zero-shot; k-hop / SNS with neighbor blocks) plus the link-prediction
//!   variant of §VI-J.
//! * [`parse`] — robust extraction of `Category: ['XX']` answers from
//!   completions, tolerant of the formatting drift real models exhibit.
//! * [`SimLlm`] — the deterministic **simulated LLM** that replaces
//!   GPT-3.5-0125 / GPT-4o-mini in this environment. It *reads the prompt*:
//!   decodes each word against the dataset's [`mqo_text::Lexicon`], scores
//!   classes by (imperfectly-known) discriminative-word evidence from the
//!   target text and neighbor titles, integrates neighbor `Category:` cues
//!   via a homophily prior, applies a per-class prior bias, and samples
//!   through Gumbel noise. Accuracy therefore *emerges* from text
//!   informativeness and neighbor cues — the property every experiment in
//!   the paper depends on — rather than being scripted.
//! * [`ScriptedLlm`] — a queue-backed fake for unit-testing execution
//!   machinery without a simulator.
//!
//! Token accounting flows through [`mqo_token::UsageMeter`]: every
//! completion records prompt and completion token counts, and the
//! execution engine in `mqo-core` enforces budgets against the meter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cached;
pub mod deadline;
pub mod error;
pub mod graphllm;
pub mod link;
pub mod model;
pub mod parse;
pub mod profile;
pub mod prompt;
pub mod resilience;
pub mod retry;
pub mod simllm;
pub mod validate;

pub(crate) use simllm::fnv64 as simllm_fnv;

pub use cached::{CachedLlm, CachedLlmStats};
pub use deadline::{
    request_deadline_expired, request_deadline_micros, with_request_deadline, DeadlineGuard,
};
pub use error::{Error, Result};
pub use link::SimLinkLlm;
pub use model::{Completion, LanguageModel, ScriptedLlm};
pub use profile::ModelProfile;
pub use prompt::{LinkPromptSpec, NeighborEntry, NodePromptSpec};
pub use resilience::{ResilienceConfig, ResilientLlm};
pub use retry::{RetryingLlm, RETRY_SUFFIX};
pub use simllm::SimLlm;
pub use validate::{LenientLlm, ValidatingLlm};
