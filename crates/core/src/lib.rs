//! # mqo-core — multi-query optimization for LLMs as predictors
//!
//! The paper's contribution, end to end:
//!
//! * [`predictor`] — the benchmark "LLMs as predictors" methods the
//!   strategies plug into (Table I): vanilla zero-shot, 1-/2-hop random,
//!   and SNS similarity-ranked neighbor selection.
//! * [`labels`] — the evolving label store: ground-truth labels of `V_L`
//!   plus pseudo-labels accumulated by query boosting.
//! * [`executor`] — the multi-query execution engine: renders prompts,
//!   calls the [`mqo_llm::LanguageModel`], parses answers, meters tokens,
//!   and (optionally) enforces a hard token budget (Eq. 2).
//! * [`surrogate`], [`bias`], [`inadequacy`] — the text-inadequacy measure
//!   `D(t_i) = g_θ2(H(p_i) ‖ b_i)` (Eqs. 8–10): surrogate MLP with 3-fold
//!   CV, category-bias estimation on `V_L^c`, and the linear merger.
//! * [`pruning`] — the **token pruning** strategy (Algorithm 1) and the
//!   budget sweep / savings arithmetic behind Fig. 7 and Table V.
//! * [`boosting`] — the **query boosting** strategy (Algorithm 2): round
//!   scheduling by neighbor-label support with threshold relaxation, plus
//!   the utilization accounting behind Fig. 8.
//! * [`joint`] — both strategies composed (Table VIII).
//! * [`analysis`] — the exploratory information-gain experiment (Fig. 3).
//! * [`tuned`] — instruction-tuned backbones (instructGLM-style) showing
//!   the strategies are model-family agnostic (Table IX).
//! * [`linkpred`] — the link-prediction variant of both strategies
//!   (Table X).
//! * [`graphlevel`] — the future-work extension (§VII): graph-level token
//!   pruning that excludes irrelevant subgraph tokens.
//! * [`sched`] — the event-driven execution core: one readiness queue
//!   (keyed by the γ₁/γ₂ cue rule for boosting), a fixed worker pool
//!   with a completion channel, and pluggable [`sched::SchedulePolicy`]
//!   implementations for FIFO, width-N, and cue-gated execution. Online
//!   arrivals (the introduction's dynamic-node scenario) run as
//!   cue-gated windows, in waves, over one evolving label store; see
//!   `examples/online_stream.rs`.
//! * [`planner`] — dollars → tokens → τ campaign planning before any LLM
//!   call (§V-C arithmetic over rendered-prompt estimates).
//! * [`queue`] — the bounded MPMC work queue the [`sched`] worker pool
//!   drains (non-blocking push, drain-aware pop).

//! ```
//! use mqo_core::{Executor, LabelStore, ZeroShot};
//! use mqo_graph::{GraphBuilder, NodeId, NodeText, Tag, ClassId};
//! use mqo_llm::ScriptedLlm;
//!
//! // A two-node toy TAG and a scripted model.
//! let mut b = GraphBuilder::new(2);
//! b.add_edge(0, 1)?;
//! let tag = Tag::new(
//!     "toy",
//!     b.build(),
//!     vec![NodeText::new("storage paper", ""), NodeText::new("agents paper", "")],
//!     vec![ClassId(0), ClassId(1)],
//!     vec!["Database".into(), "Agents".into()],
//! )?;
//! let llm = ScriptedLlm::new(["Category: ['Database']"]);
//! let exec = Executor::new(&tag, &llm, 4, 0);
//! let labels = LabelStore::empty(tag.num_nodes());
//! let out = exec.run_all(&ZeroShot, &labels, &[NodeId(0)], |_| false)?;
//! assert!(out.records[0].correct);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod bias;
pub mod boosting;
pub mod error;
pub mod executor;
pub mod graphlevel;
pub mod inadequacy;
pub mod joint;
pub mod journal;
pub mod labels;
pub mod linkpred;
pub mod metrics;
pub mod planner;
pub mod predictor;
pub mod pruning;
pub mod queue;
pub mod sched;
pub mod surrogate;
pub mod tuned;

pub use error::{Error, Result};
pub use executor::{ExecOutcome, Executor, QueryRecord, RenderScratch};
pub use inadequacy::InadequacyScorer;
pub use journal::{RunHeader, RunJournal};
pub use labels::LabelStore;
pub use predictor::{KhopRandom, LlmRanked, Predictor, Sns, ZeroShot};
pub use sched::{Labels, RunReport, SchedulePolicy, Scheduler};
