//! Run assembly: the pieces every run of the pipeline is built from.
//!
//! A batch run (`mqo classify`) and a served run (the [`crate::Engine`])
//! need the same things: the dataset, a labeled split `V_L`/`V_Q` sized
//! to a query count, a neighbor-selecting predictor, the paper's neighbor
//! cap `M`, the surrogate setup Algorithm 1's pruning trains, one metered
//! LLM client stack, and optionally a crash-safe journal. Each is decided
//! here, once, so a batch run and a served run of the same nodes build
//! identical pieces and write identical records.

use mqo_core::journal::{RunHeader, RunJournal};
use mqo_core::predictor::{KhopRandom, LlmRanked, Predictor, Sns, ZeroShot};
use mqo_core::surrogate::SurrogateConfig;
use mqo_data::persist::{self, PersistError};
use mqo_data::{dataset, DatasetBundle, DatasetId, DatasetSpec};
use mqo_fault::{FaultConfig, FaultSchedule, FaultyLlm};
use mqo_graph::{LabeledSplit, Tag};
use mqo_llm::{
    CachedLlm, LanguageModel, LenientLlm, ModelProfile, ResilienceConfig, ResilientLlm,
    RetryingLlm, SimLlm, ValidatingLlm,
};
use mqo_obs::{EventSink, MonotonicClock, Tracer, WaitClock};
use mqo_shard::ShardBundle;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;

/// The one LLM client stack every run uses, outermost layer first:
/// response cache → lenient recovery → bounded retries with the format
/// reminder → strict format validation → resilience (backoff, deadline,
/// circuit breaker, rate-limit pacing) → fault injection → simulated
/// model. Built by [`StackConfig::build`].
pub type ClientStack =
    CachedLlm<LenientLlm<RetryingLlm<ValidatingLlm<ResilientLlm<FaultyLlm<SimLlm>>>>>>;

/// The dataset named `arg`, generated at `scale` from `seed`, or else the
/// dataset file at path `arg`. A file is parsed once; the spec of the
/// dataset whose name it stores is attached afterwards (Cora's for a name
/// the registry does not know), since the spec is code, not data, and
/// parsing never reads it.
pub fn resolve_bundle(
    arg: &str,
    scale: Option<f64>,
    seed: u64,
) -> Result<DatasetBundle, String> {
    if let Some(id) = DatasetId::from_name(arg) {
        return Ok(dataset(id, scale, seed));
    }
    if !Path::new(arg).exists() {
        return Err(format!("'{arg}' is neither a known dataset nor an existing file"));
    }
    let mut bundle = persist::load(arg, DatasetId::Cora.spec())
        .map_err(|e| format!("cannot load {arg}: {e}"))?;
    bundle.spec = spec_named(bundle.tag.name());
    Ok(bundle)
}

/// Load a per-shard bundle file cut by `mqo partition` in one pass,
/// attaching the spec by stored name as [`resolve_bundle`] does.
pub fn load_shard_bundle(path: impl AsRef<Path>) -> Result<ShardBundle, PersistError> {
    let mut bundle = ShardBundle::load(path, DatasetId::Cora.spec())?;
    bundle.data.spec = spec_named(bundle.data.tag.name());
    Ok(bundle)
}

fn spec_named(name: &str) -> DatasetSpec {
    DatasetId::from_name(name).unwrap_or(DatasetId::Cora).spec()
}

/// The paper's neighbor cap `M` (§VI-A): 10 on ogbn-products, 4 on every
/// other dataset.
pub fn max_neighbors(bundle: &DatasetBundle) -> usize {
    match DatasetId::from_name(bundle.tag.name()) {
        Some(DatasetId::OgbnProducts) => 10,
        _ => 4,
    }
}

/// The surrogate classifier setup of §VI-A3 that Algorithm 1's pruning
/// trains: hashed features with a small grid search on ogbn-arxiv and
/// ogbn-products, a linear TF-IDF model on every other dataset.
pub fn surrogate_config(bundle: &DatasetBundle, seed: u64) -> SurrogateConfig {
    match DatasetId::from_name(bundle.tag.name()) {
        Some(DatasetId::OgbnArxiv | DatasetId::OgbnProducts) => SurrogateConfig::large(seed),
        _ => SurrogateConfig::small(seed),
    }
}

/// The dataset's standard labeled split with `queries` query nodes,
/// drawn from `seed`.
pub fn split(
    bundle: &DatasetBundle,
    queries: usize,
    seed: u64,
) -> Result<LabeledSplit, String> {
    let cfg = bundle.spec.split.with_queries(queries);
    LabeledSplit::generate(&bundle.tag, cfg, &mut StdRng::seed_from_u64(seed))
        .map_err(|e| format!("cannot split: {e}"))
}

/// The predictor for a method name (`zero-shot`, `1hop`, `2hop`, `sns`,
/// `llmrank`).
pub fn make_predictor(method: &str, tag: &Tag) -> Result<Box<dyn Predictor>, String> {
    let n = tag.num_nodes();
    Ok(match method {
        "zero-shot" => Box::new(ZeroShot),
        "1hop" => Box::new(KhopRandom::new(1, n)),
        "2hop" => Box::new(KhopRandom::new(2, n)),
        "sns" => Box::new(Sns::fit(tag)),
        "llmrank" => Box::new(LlmRanked::fit(tag, 2)),
        other => return Err(format!("unknown method '{other}'")),
    })
}

/// How a [`ClientStack`] is configured.
#[derive(Debug)]
pub struct StackConfig<'a> {
    /// The simulated model's profile.
    pub profile: ModelProfile,
    /// Seed of the fault schedule and the resilience layer's jitter.
    pub seed: u64,
    /// Fault-injection spec (see [`FaultConfig::parse`]); `None` injects
    /// nothing.
    pub faults: Option<&'a str>,
    /// Exit the process when this transport call starts (see
    /// [`FaultyLlm::with_kill_after`]).
    pub kill_after: Option<u64>,
    /// Attempts per prompt in the retry layer (at least 1).
    pub retries: u32,
    /// Hard Eq. 2 budget the retry layer re-checks each retried prompt
    /// against.
    pub budget: Option<u64>,
    /// Response-cache capacity; `0` keeps the cache layer as a
    /// pass-through, so cached and uncached runs execute the same code.
    pub cache_cap: usize,
}

impl StackConfig<'_> {
    /// Build the stack over `bundle`'s simulated model. Validation sits
    /// above resilience so the circuit breaker counts transport failures
    /// only, never format rejections; the cache wraps everything so a hit
    /// skips validation and retries. `sink` (every layer's events and the
    /// usage meter) and `tracer` (retry and resilience spans) are attached
    /// only when given and enabled, so an unobserved run pays nothing.
    pub fn build(
        &self,
        bundle: &DatasetBundle,
        sink: Option<Arc<dyn EventSink>>,
        tracer: &Arc<Tracer>,
    ) -> Result<ClientStack, String> {
        let classes = bundle.tag.class_names().to_vec();
        let sim = SimLlm::new(bundle.lexicon.clone(), classes.clone(), self.profile.clone());
        let schedule = match self.faults {
            Some(spec) => FaultSchedule::seeded(
                self.seed,
                FaultConfig::parse(spec).map_err(|e| format!("bad --faults: {e}"))?,
            ),
            None => FaultSchedule::clean(),
        };
        let wait_clock: Arc<dyn WaitClock> = Arc::new(MonotonicClock);
        let mut faulty = FaultyLlm::new(sim, schedule, wait_clock.clone());
        if let Some(call) = self.kill_after {
            faulty = faulty.with_kill_after(call);
        }
        if let Some(s) = &sink {
            faulty = faulty.with_sink(s.clone());
        }
        let mut resilient = ResilientLlm::new(
            faulty,
            ResilienceConfig { seed: self.seed, ..ResilienceConfig::default() },
            wait_clock,
        );
        if let Some(s) = &sink {
            resilient = resilient.with_sink(s.clone());
        }
        if tracer.enabled() {
            resilient = resilient.with_tracer(tracer.clone());
        }
        let mut retrying =
            RetryingLlm::new(ValidatingLlm::new(resilient, classes), self.retries.max(1));
        if let Some(b) = self.budget {
            retrying = retrying.with_budget(b);
        }
        if let Some(s) = &sink {
            retrying = retrying.with_sink(s.clone());
        }
        if tracer.enabled() {
            retrying = retrying.with_tracer(tracer.clone());
        }
        let llm = CachedLlm::new(LenientLlm::new(retrying), self.cache_cap);
        if let Some(s) = sink {
            llm.meter().attach_sink(s);
        }
        Ok(llm)
    }
}

/// Create the journal at `path`, or with `resume` reopen it for replay.
/// Resuming refuses a journal whose header differs from `header`.
pub fn open_journal(
    path: impl AsRef<Path>,
    header: &RunHeader,
    resume: bool,
) -> Result<RunJournal, String> {
    let path = path.as_ref();
    if resume {
        RunJournal::resume(path, header)
            .map_err(|e| format!("cannot resume journal {}: {e}", path.display()))
    } else {
        RunJournal::create(path, header)
            .map_err(|e| format!("cannot create journal {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_data::persist::ImageReader;
    use mqo_shard::{extract_shard, partition, PartitionStrategy, ShardMap};
    use std::io::Cursor;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mqo-run-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{name}", std::process::id()))
    }

    #[test]
    fn a_loaded_file_gets_the_spec_of_its_stored_name() {
        let citeseer = DatasetId::Citeseer.spec();
        let path = tmp("citeseer.bin");
        persist::save(&dataset(DatasetId::Citeseer, Some(0.2), 7), &path).unwrap();

        let bundle = resolve_bundle(path.to_str().unwrap(), None, 0).unwrap();
        assert_eq!(bundle.spec.name, "citeseer");
        assert_eq!(bundle.spec.split, citeseer.split);

        let map = partition(bundle.tag.graph(), 2, 7, PartitionStrategy::EdgeCut);
        let shard_path = tmp("citeseer-shard-1.bin");
        extract_shard(&bundle, &map, 1).save(&shard_path).unwrap();
        let shard = load_shard_bundle(&shard_path).unwrap();
        assert_eq!(shard.identity.shard_id, 1);
        assert_eq!(shard.data.spec.name, "citeseer");
        assert_eq!(shard.data.spec.split, citeseer.split);

        for p in [path, shard_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    /// Each image kind has one magic. A current image rewritten under a
    /// magic an earlier build wrote is refused alike from memory and from
    /// its file, with the hint to regenerate it, and a dataset image's
    /// refusal reaches `resolve_bundle` as a load failure.
    #[test]
    fn an_image_under_a_retired_magic_is_refused_with_a_regenerate_hint() {
        let full = dataset(DatasetId::Cora, Some(0.1), 3);
        let map = partition(full.tag.graph(), 2, 3, PartitionStrategy::EdgeCut);
        let shard = extract_shard(&full, &map, 0);
        let inner_at = 8 + 8 + 16 + 4 * shard.num_locals() as usize;
        let data = persist::write_to(&full, Cursor::new(Vec::new())).unwrap().into_inner();
        let shard = shard.write_to(Cursor::new(Vec::new())).unwrap().into_inner();
        let map = map.write_to(Cursor::new(Vec::new())).unwrap().into_inner();
        let retired = |image: &[u8], at: usize, magic: &[u8; 8]| {
            let mut out = image.to_vec();
            out[at..at + 8].copy_from_slice(magic);
            out
        };
        let hint = |kind: &str, verb: &str| {
            format!("corrupt image: not a {kind} this build writes; regenerate it with `mqo {verb}`")
        };
        let (dataset_hint, shard_hint) =
            (hint("dataset image", "generate"), hint("shard image", "partition"));
        let cases = [
            ("dataset", retired(&data, 0, b"MQOTAG3\n"), &dataset_hint),
            ("dataset", retired(&data, 0, b"MQOTAG2\n"), &dataset_hint),
            ("shard", retired(&shard, 0, b"MQOSHD1\n"), &shard_hint),
            ("shard", retired(&shard, inner_at, b"MQOTAG3\n"), &dataset_hint),
            ("map", retired(&map, 0, b"MQOSHM1\n"), &hint("shard map", "partition")),
        ];
        let path = tmp("retired.bin");
        let arg = path.to_str().unwrap();
        let spec = || DatasetId::Cora.spec();
        for (kind, image, hint) in cases {
            std::fs::write(&path, &image).unwrap();
            let r = &mut ImageReader::from_slice(&image);
            let (decoded, loaded) = match kind {
                "dataset" => {
                    (persist::decode(r, spec()).err(), persist::load(&path, spec()).err())
                }
                "shard" => {
                    (ShardBundle::decode(r, spec()).err(), load_shard_bundle(&path).err())
                }
                _ => (ShardMap::decode(r).err(), ShardMap::load(&path).err()),
            };
            let what = |e: Option<PersistError>| e.map(|e| e.to_string());
            assert_eq!(
                what(decoded).as_ref(),
                Some(hint),
                "{kind} from memory: {:?}",
                &image[..8]
            );
            assert_eq!(what(loaded).as_ref(), Some(hint), "{kind} from its file");
            if kind == "dataset" {
                let refused = resolve_bundle(arg, None, 0).err();
                assert_eq!(refused, Some(format!("cannot load {arg}: {hint}")));
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_file_with_an_unknown_name_gets_coras_spec() {
        let spec = DatasetSpec { name: "mystery", ..DatasetId::Citeseer.spec() };
        let path = tmp("mystery.bin");
        persist::save(&mqo_data::generate(&spec, 0.2, 7), &path).unwrap();
        let bundle = resolve_bundle(path.to_str().unwrap(), None, 0).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(bundle.tag.name(), "mystery");
        assert_eq!(bundle.spec.name, "cora");
        assert_eq!(bundle.spec.split, DatasetId::Cora.spec().split);
        assert_eq!(max_neighbors(&bundle), 4);
    }

    #[test]
    fn m_matches_paper() {
        assert_eq!(max_neighbors(&dataset(DatasetId::Cora, Some(0.1), 1)), 4);
        assert_eq!(max_neighbors(&dataset(DatasetId::OgbnProducts, Some(0.0005), 1)), 10);
    }

    #[test]
    fn surrogate_config_matches_paper() {
        let shape = |id, scale| {
            let cfg = surrogate_config(&dataset(id, Some(scale), 1), 9);
            (cfg.hashed_dim, cfg.candidates.len(), cfg.seed)
        };
        assert_eq!(shape(DatasetId::Cora, 0.1), (None, 1, 9));
        assert_eq!(shape(DatasetId::OgbnArxiv, 0.0005), (Some(256), 4, 9));
        assert_eq!(shape(DatasetId::OgbnProducts, 0.0005), (Some(256), 4, 9));
    }

    #[test]
    fn an_unknown_method_is_refused() {
        let tag = dataset(DatasetId::Cora, Some(0.1), 1).tag;
        for method in ["zero-shot", "1hop", "2hop", "sns", "llmrank"] {
            assert!(make_predictor(method, &tag).is_ok(), "{method}");
        }
        let err = make_predictor("3hop", &tag).err().unwrap();
        assert!(err.contains("unknown method '3hop'"), "{err}");
    }
}
