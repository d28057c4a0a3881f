//! `mqo` — command-line interface to the library.
//!
//! ```text
//! mqo generate <dataset> [--scale S] [--seed N] --out FILE
//! mqo inspect  FILE
//! mqo classify <dataset|FILE> [--method M] [--queries N] [--prune TAU]
//!              [--boost] [--model gpt35|gpt4o-mini] [--threads T]
//!              [--deterministic] [--budget B] [--retries N] [--trace FILE]
//!              [--trace-chrome FILE] [--serve-metrics ADDR]
//!              [--cost-json FILE] [--cache-cap N] [--no-cache]
//!              [--repeat K] [--stats-json FILE]
//!              [--faults SPEC] [--fault-kill-after N]
//!              [--journal FILE] [--resume] [--dump-records FILE]
//! mqo serve    <dataset|FILE> [--addr A] [--method M] [--queries N]
//!              [--workers W] [--queue-cap Q] [--budget B] [--boost]
//!              [--tenants a=1000,b=500] [--tenant-budget N]
//!              [--cache-cap N] [--no-cache] [--retries N] [--faults SPEC]
//!              [--journal FILE] [--resume] [--trace-chrome FILE]
//!              [--cost-json FILE] [--stats-json FILE] [--addr-file FILE]
//! mqo partition <dataset|FILE> --shards K --out-dir DIR [--seed N]
//!              [--scale S] [--strategy edge-cut|ring] [--stats-json FILE]
//! mqo route    MAPFILE --workers ADDR,ADDR,... [--addr A] [--addr-file F]
//!              [--eject-after N] [--probe-interval-ms MS]
//! mqo plan     <dataset> --dollars X [--queries N] [--method M]
//! mqo tables
//! ```
//!
//! Datasets: cora, citeseer, pubmed, ogbn-arxiv, ogbn-products.
//! Methods: zero-shot, 1hop, 2hop, sns, llmrank.
//!
//! Scale-out: `mqo partition` cuts a dataset into per-shard bundles plus
//! a shard map; `mqo serve --shard-id I --shard-map F [--router A]`
//! serves one shard (pushing boundary pseudo-labels to the router when
//! boosting); `mqo route` fronts the workers with ownership routing,
//! batch fan-out, health ejection, and the label exchange relay.
//!
//! Arguments go through the strict parser in [`mqo_bench::cli`]: each
//! verb declares its flags, and an unknown flag, a missing value, a
//! stray positional, or an unparsable number exits 2 with a message.

use mqo_bench::cli::{Args, CliError, Spec};
use mqo_bench::harness::Trace;
use mqo_core::boosting::{BoostConfig, DegradePolicy};
use mqo_core::journal::RunHeader;
use mqo_core::metrics::ConfusionMatrix;
use mqo_core::planner::plan_campaign;
use mqo_core::pruning::PrunePlan;
use mqo_core::{Executor, InadequacyScorer, LabelStore, Labels, SchedulePolicy, Scheduler};
use mqo_data::{dataset, persist, DatasetId};
use mqo_graph::NodeId;
use mqo_llm::{LanguageModel, ModelProfile, SimLlm};
use mqo_obs::{
    serve_metrics, ChromeTraceSink, CostLedger, EventSink, Fanout, MetricsSink, MonotonicClock,
    SpanId, Tracer,
};
use mqo_serve::run::{self, resolve_bundle, StackConfig};
use mqo_serve::{ServeConfig, ServerOptions};
use mqo_token::GPT_35_TURBO_0125;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         mqo generate <dataset> [--scale S] [--seed N] --out FILE\n  \
         mqo inspect  FILE\n  \
         mqo classify <dataset|FILE> [--method zero-shot|1hop|2hop|sns|llmrank]\n               \
         [--queries N] [--prune TAU] [--boost] [--model gpt35|gpt4o-mini] [--threads T]\n               \
         [--deterministic] [--budget B] [--retries N] [--trace FILE] [--trace-chrome FILE]\n               \
         [--serve-metrics ADDR] [--cost-json FILE] [--cache-cap N] [--no-cache]\n               \
         [--repeat K] [--stats-json FILE]\n               \
         [--faults error=R,malformed=R,rate-limit=R,latency=R,truncate=R,outage=S+L]\n               \
         [--fault-kill-after N] [--journal FILE] [--resume] [--dump-records FILE]\n  \
         mqo serve    <dataset|FILE> [--addr A] [--method M] [--queries N] [--workers W]\n               \
         [--queue-cap Q] [--budget B] [--boost] [--tenants a=1000,b=500]\n               \
         [--tenant-budget N] [--cache-cap N] [--no-cache] [--retries N]\n               \
         [--faults SPEC] [--journal FILE] [--resume] [--trace-chrome FILE]\n               \
         [--slo-p99-ms MS] [--slo-availability F] [--flight-slow N]\n               \
         [--flight-errors N] [--flight-dump FILE]\n               \
         [--cost-json FILE] [--stats-json FILE] [--addr-file FILE]\n               \
         [--chaos reset=R,stall=R,partial=R,abort=R,stall-millis=MS]\n               \
         [--chaos-seed N] [--chaos-addr-file FILE]\n               \
         [--shard-id I --shard-map FILE] [--router ADDR]\n               \
         [--exchange-interval-ms MS]\n  \
         mqo partition <dataset|FILE> --shards K --out-dir DIR [--seed N] [--scale S]\n               \
         [--strategy edge-cut|ring] [--stats-json FILE]\n  \
         mqo route    MAPFILE --workers ADDR,ADDR,... [--addr A] [--addr-file FILE]\n               \
         [--eject-after N] [--probe-interval-ms MS]\n  \
         mqo plan     <dataset> --dollars X [--queries N] [--method M]\n  \
         mqo tables"
    );
    ExitCode::from(2)
}

const GENERATE: Spec =
    Spec { positional: &["dataset name"], switches: &[], values: &["scale", "seed", "out"] };
const INSPECT: Spec = Spec { positional: &["file or dataset"], switches: &[], values: &[] };
const CLASSIFY: Spec = Spec {
    positional: &["dataset or file"],
    switches: &["boost", "no-cache", "resume", "deterministic"],
    values: &[
        "seed",
        "scale",
        "method",
        "queries",
        "prune",
        "model",
        "threads",
        "budget",
        "retries",
        "trace",
        "trace-chrome",
        "serve-metrics",
        "cost-json",
        "cache-cap",
        "repeat",
        "stats-json",
        "faults",
        "fault-kill-after",
        "journal",
        "dump-records",
    ],
};
const SERVE: Spec = Spec {
    positional: &["dataset or file"],
    switches: &["boost", "no-cache", "resume"],
    values: &[
        "seed",
        "scale",
        "addr",
        "addr-file",
        "method",
        "queries",
        "workers",
        "queue-cap",
        "budget",
        "tenants",
        "tenant-budget",
        "cache-cap",
        "retries",
        "faults",
        "journal",
        "trace-chrome",
        "cost-json",
        "stats-json",
        "slo-p99-ms",
        "slo-availability",
        "flight-slow",
        "flight-errors",
        "flight-dump",
        "chaos",
        "chaos-seed",
        "chaos-addr-file",
        "shard-id",
        "shard-map",
        "router",
        "exchange-interval-ms",
    ],
};
const PARTITION: Spec = Spec {
    positional: &["dataset or file"],
    switches: &[],
    values: &["seed", "scale", "shards", "out-dir", "strategy", "stats-json"],
};
const ROUTE: Spec = Spec {
    positional: &["shard-map file"],
    switches: &[],
    values: &["workers", "addr", "addr-file", "eject-after", "probe-interval-ms"],
};
const PLAN: Spec =
    Spec { positional: &["dataset"], switches: &[], values: &["dollars", "queries", "method"] };
const TABLES: Spec = Spec { positional: &[], switches: &[], values: &[] };

fn cmd_generate(args: &Args) -> Result<(), CliError> {
    let name = args.pos(0);
    let id = DatasetId::from_name(name).ok_or_else(|| format!("unknown dataset '{name}'"))?;
    let scale = args.num("scale")?;
    let seed = args.num_or("seed", 42)?;
    let out = args.get("out").ok_or("missing --out FILE")?;
    let bundle = dataset(id, scale, seed);
    persist::save(&bundle, out).map_err(|e| format!("cannot save: {e}"))?;
    println!(
        "wrote {} ({} nodes, {} edges) to {out}",
        bundle.tag.name(),
        bundle.tag.num_nodes(),
        bundle.tag.num_edges()
    );
    Ok(())
}

fn cmd_inspect(args: &Args) -> Result<(), CliError> {
    let arg = args.pos(0);
    let bundle = resolve_bundle(arg, None, 42)?;
    let s = mqo_graph::stats::summarize(&bundle.tag);
    println!("dataset     : {}", s.name);
    println!("nodes       : {}", s.nodes);
    println!("edges       : {}", s.edges);
    println!("classes     : {}", s.classes);
    println!("homophily   : {:.3}", s.homophily);
    println!("mean degree : {:.2}", s.mean_degree);
    println!("text words  : {:.0} per node", s.mean_text_words);
    println!("scale       : {:.4}", bundle.scale);
    Ok(())
}

/// The scheduler policy a `classify` invocation selects, read from the
/// flags alone (before any dataset loads). A flag the chosen policy would
/// clamp or ignore is refused rather than silently rewritten.
fn classify_policy(args: &Args) -> Result<SchedulePolicy, CliError> {
    let refuse = |why: &str| Err(CliError::Usage(why.to_string()));
    let threads: usize = args.num_or("threads", 1)?;
    if threads == 0 {
        return refuse("--threads must be at least 1");
    }
    if args.has("boost") {
        // Width 1 runs waves either way; wider runs free-run unless
        // --deterministic asks for wave barriers.
        return Ok(SchedulePolicy::CueGated {
            config: BoostConfig::default(),
            policy: DegradePolicy::default(),
            threads,
            deterministic: args.has("deterministic"),
        });
    }
    if args.has("deterministic") {
        return refuse("--deterministic only applies to --boost");
    }
    Ok(if threads > 1 { SchedulePolicy::Parallel { threads } } else { SchedulePolicy::Fifo })
}

fn cmd_classify(args: &Args) -> Result<(), CliError> {
    let policy = classify_policy(args)?;
    let arg = args.pos(0);
    let seed = args.num_or("seed", 42u64)?;
    let bundle = resolve_bundle(arg, args.num("scale")?, seed)?;
    let queries: usize = args.num_or("queries", 200)?;
    let method = args.get("method").unwrap_or("1hop");
    let profile = match args.get("model") {
        None | Some("gpt35") => ModelProfile::gpt35(),
        Some("gpt4o-mini") => ModelProfile::gpt4o_mini(),
        Some(other) => return Err(CliError::Usage(format!("unknown model '{other}'"))),
    };

    // `--repeat K` replays the query list K times — the serving-style
    // workload (overlapping traffic) where a response cache pays off.
    let repeat: usize = args.num_or("repeat", 1)?;
    if repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    let budget: Option<u64> = args.num("budget")?;

    let trace = args
        .get("trace")
        .map(Trace::create)
        .transpose()
        .map_err(|e| format!("cannot create trace file: {e}"))?;
    let chrome = args
        .get("trace-chrome")
        .map(ChromeTraceSink::create)
        .transpose()
        .map_err(|e| format!("cannot create chrome trace file: {e}"))?
        .map(Arc::new);
    let metrics = args.get("serve-metrics").map(|_| Arc::new(MetricsSink::new()));
    let ledger = args.get("cost-json").map(|_| Arc::new(CostLedger::new()));
    // Spans are stamped from the process monotonic clock only when a
    // Chrome trace asked for them; the disabled tracer otherwise makes
    // every span a free no-op (no ids, no clock reads, no events).
    let tracer = Arc::new(if chrome.is_some() {
        Tracer::new(Arc::new(MonotonicClock))
    } else {
        Tracer::disabled()
    });
    // Every observer shares one fanout; the cache invalidator joins it
    // below once the client stack exists.
    let fanout = Arc::new(Fanout::new());
    if let Some(t) = &trace {
        fanout.push(Arc::new(t.clone()));
    }
    if let Some(c) = &chrome {
        fanout.push(c.clone());
    }
    if let Some(m) = &metrics {
        fanout.push(m.clone());
    }
    if let Some(l) = &ledger {
        fanout.push(l.clone());
    }
    let observed = !fanout.is_empty();

    let split = run::split(&bundle, queries, seed)?;
    let predictor = run::make_predictor(method, &bundle.tag)?;
    let cache_cap: usize =
        if args.has("no-cache") { 0 } else { args.num_or("cache-cap", 4096)? };
    // With a hard budget the retry layer re-checks each retried prompt
    // against Eq. 2, so retries stay on by default either way.
    let llm = StackConfig {
        profile,
        seed,
        faults: args.get("faults"),
        kill_after: args.num("fault-kill-after")?,
        retries: args.num_or("retries", 3)?,
        budget,
        cache_cap,
    }
    .build(&bundle, observed.then(|| fanout.clone() as Arc<dyn EventSink>), &tracer)?;
    // Round-based invalidation rides the telemetry stream: the invalidator
    // is an event sink that advances the cache epoch on RoundCompleted, so
    // boosting-enriched prompts are never answered from a previous round.
    fanout.push(Arc::new(llm.round_invalidator()));
    // The run journal is created (or resumed) before the executor borrows
    // it; the header fingerprints the run shape so `--resume` refuses a
    // journal written by a different campaign.
    let journal = match args.get("journal") {
        Some(path) => {
            let header = RunHeader {
                dataset: bundle.tag.name().to_string(),
                method: method.to_string(),
                seed,
                queries: (split.queries().len() * repeat) as u64,
                boost: args.has("boost"),
                budget,
            };
            Some(run::open_journal(path, &header, args.has("resume"))?)
        }
        None if args.has("resume") => return Err("--resume requires --journal FILE".into()),
        None => None,
    };
    // Degraded mode is always on in the CLI: a failed query becomes a
    // recorded outcome instead of aborting the whole campaign.
    let mut exec = Executor::new(&bundle.tag, &llm, run::max_neighbors(&bundle), seed)
        .with_sink(&*fanout)
        .with_tracer(&tracer)
        .with_degrade();
    if let Some(j) = &journal {
        exec = exec.with_journal(j);
    }
    if let Some(b) = budget {
        exec = exec.with_budget(b);
    }

    let run_queries: Vec<NodeId> = split.queries().repeat(repeat);

    let plan = match args.num::<f64>("prune")? {
        Some(tau) => {
            let surrogate = run::surrogate_config(&bundle, seed);
            let scorer = InadequacyScorer::build(&exec, &split, &surrogate, 10, seed)
                .map_err(|e| format!("scorer: {e}"))?;
            PrunePlan::by_inadequacy(&scorer, &bundle.tag, split.queries(), tau)
        }
        None => PrunePlan::default(),
    };

    // The metrics endpoint comes up before the run so `/metrics` and
    // `/progress` can be polled while queries are in flight; it stays up
    // until the process exits.
    let _server = match (&metrics, args.get("serve-metrics")) {
        (Some(m), Some(addr)) => {
            let srv = serve_metrics(addr, m.clone())
                .map_err(|e| format!("cannot serve metrics on {addr}: {e}"))?;
            println!("metrics         : http://{}/metrics (and /progress)", srv.addr());
            Some(srv)
        }
        _ => None,
    };

    // Root span of the whole campaign. Workers and rounds with no open
    // span on their own thread inherit it through the executor's scope.
    let run_span = tracer.span(
        &*fanout,
        "run",
        || format!("classify {} ({method})", bundle.tag.name()),
        SpanId::NONE,
    );
    exec.set_span_scope(run_span.id());

    let run_started = std::time::Instant::now();
    // One execution core for every shape of run: the scheduler policy is
    // the only thing the flags choose.
    let boost = matches!(policy, SchedulePolicy::CueGated { .. });
    let mut labels = LabelStore::from_split(&bundle.tag, &split);
    let labels = if boost { Labels::Boosting(&mut labels) } else { Labels::Fixed(&labels) };
    let report = Scheduler::new(&exec, policy)
        .run(predictor.as_ref(), labels, &run_queries, |v| plan.is_pruned(v))
        .map_err(|e| format!("run: {e}"))?;
    if boost {
        println!("boosting rounds: {}", report.rounds.len());
    }
    let outcome = report.outcome;
    let wall_seconds = run_started.elapsed().as_secs_f64();
    drop(run_span);

    let matrix = ConfusionMatrix::from_outcome(&bundle.tag, &outcome);
    println!("method          : {}", predictor.name());
    println!("queries         : {}", outcome.records.len());
    println!("accuracy        : {:.1}%", outcome.accuracy() * 100.0);
    println!("macro F1        : {:.3}", matrix.macro_f1());
    println!("with neighbors  : {}", outcome.queries_with_neighbors());
    println!("prompt tokens   : {}", outcome.prompt_tokens());
    let totals = llm.meter().totals();
    if let Some(b) = exec.budget {
        println!(
            "budget          : {} of {} input tokens spent ({} queries starved)",
            totals.prompt_tokens,
            b,
            outcome.budget_starved(),
        );
    }
    if outcome.failed() > 0 {
        println!("failed queries  : {}", outcome.failed());
    }
    if let Some(j) = &journal {
        println!(
            "journal         : {} ({} replayed, {} recorded)",
            j.path().display(),
            j.replayed(),
            j.recorded(),
        );
    }
    println!(
        "est. cost       : ${:.4} at {} prices",
        GPT_35_TURBO_0125.cost(totals),
        GPT_35_TURBO_0125.name
    );
    let cstats = llm.stats();
    if cache_cap > 0 {
        println!(
            "cache           : {} hit, {} miss, {} coalesced ({:.1}% served; {} evict, {} stale)",
            cstats.cache.hits,
            cstats.cache.misses,
            cstats.coalesced,
            100.0 * cstats.serve_rate(),
            cstats.cache.evictions,
            cstats.cache.stale_drops,
        );
        println!("tokens saved    : {}", cstats.tokens_saved);
    }
    if observed {
        llm.report(&*fanout);
    }
    if let Some(t) = &trace {
        mqo_obs::EventSink::flush(t);
        print!("{}", t.summary());
        println!("trace written   : {}", args.get("trace").unwrap_or_default());
        let dropped = t.dropped();
        if dropped > 0 {
            if let Some(m) = &metrics {
                m.add_events_dropped(dropped);
            }
            println!(
                "warning         : {dropped} event(s) evicted from the summary ring \
                 (the JSONL trace file is complete)"
            );
        }
    }
    if let Some(c) = &chrome {
        mqo_obs::EventSink::flush(&**c);
        println!(
            "chrome trace    : {} ({} spans)",
            args.get("trace-chrome").unwrap_or_default(),
            c.span_count()
        );
    }
    if let Some(l) = &ledger {
        let report = l.report();
        print!("{report}");
        let reconciles = report.reconciles_with(totals.prompt_tokens);
        let path = args.get("cost-json").unwrap_or_default();
        std::fs::write(path, report.to_json(totals.prompt_tokens))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("cost ledger     : {path} (reconciles with meter: {reconciles})");
    }
    if let Some(path) = args.get("stats-json") {
        let stats = serde_json::json!({
            "dataset": bundle.tag.name(),
            "method": predictor.name(),
            "queries": outcome.records.len(),
            "repeat": repeat,
            "cache_cap": cache_cap,
            "accuracy": outcome.accuracy(),
            "tokens_sent": totals.prompt_tokens,
            "requests_sent": totals.requests,
            "cache_hits": cstats.cache.hits,
            "cache_misses": cstats.cache.misses,
            "coalesced": cstats.coalesced,
            "serve_rate": cstats.serve_rate(),
            "tokens_saved": cstats.tokens_saved,
            "failed": outcome.failed(),
            "replayed": journal.as_ref().map_or(0, |j| j.replayed()),
            "wall_seconds": wall_seconds,
        });
        let body =
            serde_json::to_string_pretty(&stats).map_err(|e| format!("stats json: {e}"))?;
        std::fs::write(path, body + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("stats written   : {path}");
    }
    if let Some(path) = args.get("dump-records") {
        // Records sorted by node, one journal-format line each: resumed
        // and from-scratch runs of the same campaign must dump identical
        // bytes, which is exactly what the chaos gate diffs.
        let mut records = outcome.records.clone();
        records.sort_by_key(|r| (r.node.0, r.prompt_tokens));
        let mut body = String::new();
        for r in &records {
            mqo_core::journal::write_record(r, "", &mut body);
            body.push('\n');
        }
        std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("records written : {path}");
    }
    Ok(())
}

/// Long-running classification service over the same run assembly
/// ([`mqo_serve::run`]) as `classify`. Blocks until SIGTERM/SIGINT or
/// `POST /v1/drain`, then drains gracefully: in-flight work completes,
/// the journal is sealed, and artifacts (chrome trace, cost ledger,
/// stats) are written — so a `--resume` restart re-bills zero tokens.
fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let arg = args.pos(0);
    let seed = args.num_or("seed", 42u64)?;
    let shard_id: Option<u32> = args.num("shard-id")?;

    let mut tenant_budgets = HashMap::new();
    if let Some(spec) = args.get("tenants") {
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (name, tokens) =
                part.split_once('=').ok_or("bad --tenants (want name=tokens,...)")?;
            tenant_budgets.insert(
                name.to_string(),
                tokens.parse().map_err(|_| {
                    CliError::Usage(format!("bad --tenants token budget '{tokens}'"))
                })?,
            );
        }
    }
    let cache_cap: usize =
        if args.has("no-cache") { 0 } else { args.num_or("cache-cap", 4096)? };
    let cfg = ServeConfig {
        method: args.get("method").map(String::from).unwrap_or_else(|| "1hop".into()),
        seed,
        split_queries: args.num_or("queries", 200)?,
        budget: args.num("budget")?,
        retries: args.num_or("retries", 3)?,
        cache_cap,
        boost: args.has("boost"),
        faults: args.get("faults").map(String::from),
        journal: args.get("journal").map(PathBuf::from),
        resume: args.has("resume"),
        trace_chrome: args.get("trace-chrome").map(PathBuf::from),
        tenant_budgets,
        default_tenant_budget: args.num("tenant-budget")?,
        slo_p99_ms: args.num("slo-p99-ms")?,
        slo_availability: args.num_or("slo-availability", 0.999)?,
        flight_slow: args.num_or("flight-slow", 32)?,
        flight_errors: args.num_or("flight-errors", 64)?,
    };
    let engine = Arc::new(match shard_id {
        Some(id) => {
            // Sharded worker: the positional argument is a per-shard
            // bundle file cut by `mqo partition`.
            let map_path = args.get("shard-map").ok_or("--shard-id needs --shard-map FILE")?;
            let map = mqo_shard::ShardMap::load(map_path)
                .map_err(|e| format!("cannot load shard map {map_path}: {e}"))?;
            let sb = run::load_shard_bundle(arg)
                .map_err(|e| format!("cannot load shard bundle {arg}: {e}"))?;
            if sb.identity.shard_id != id {
                return Err(format!(
                    "{arg} holds shard {} but --shard-id asked for {id}",
                    sb.identity.shard_id
                )
                .into());
            }
            mqo_serve::Engine::new_sharded(sb, map, cfg)?
        }
        None => {
            let bundle = resolve_bundle(arg, args.num("scale")?, seed)?;
            mqo_serve::Engine::new(bundle, cfg)?
        }
    });
    let public_addr =
        args.get("addr").map(String::from).unwrap_or_else(|| "127.0.0.1:8080".into());
    let chaos = args
        .get("chaos")
        .map(mqo_fault::NetFaultConfig::parse)
        .transpose()
        .map_err(|e| format!("bad --chaos: {e}"))?;
    let options = ServerOptions {
        // Under network chaos the proxy owns the public address and the
        // server hides behind it on a free port.
        addr: if chaos.is_some() { "127.0.0.1:0".into() } else { public_addr.clone() },
        workers: args.num_or("workers", 4)?,
        queue_capacity: args.num_or("queue-cap", 64)?,
        overload: mqo_serve::OverloadConfig::default(),
    };
    let workers = options.workers;
    let server = mqo_serve::Server::start(Arc::clone(&engine), options)
        .map_err(|e| format!("cannot serve: {e}"))?;
    // Chaos injections are announced through the engine's own fanout so
    // they land in the same metrics registry and flight recorder as
    // everything else.
    struct EngineSink(Arc<mqo_serve::Engine>);
    impl mqo_obs::EventSink for EngineSink {
        fn emit(&self, event: &mqo_obs::Event) {
            self.0.fanout().emit(event);
        }
    }
    let proxy = match chaos {
        None => None,
        Some(net_cfg) => {
            let chaos_seed = args.num_or("chaos-seed", seed)?;
            let schedule = mqo_fault::NetFaultSchedule::seeded(chaos_seed, net_cfg);
            let sink: Arc<dyn mqo_obs::EventSink> = Arc::new(EngineSink(Arc::clone(&engine)));
            Some(
                mqo_fault::ChaosProxy::start(&public_addr, server.addr(), schedule, sink)
                    .map_err(|e| format!("cannot start chaos proxy on {public_addr}: {e}"))?,
            )
        }
    };
    let public = proxy.as_ref().map_or(server.addr(), |p| p.addr());
    println!("serving         : http://{public}/v1/classify");
    println!(
        "endpoints       : /v1/healthz /v1/stats /v1/slo /v1/debug/flight /v1/drain \
         /metrics /progress"
    );
    if proxy.is_some() {
        println!("chaos proxy     : fronting http://{} (direct, fault-free)", server.addr());
    }
    if let Some(path) = args.get("addr-file") {
        std::fs::write(path, format!("{public}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = args.get("chaos-addr-file") {
        std::fs::write(path, format!("{}\n", server.addr()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    // Sharded worker extras: announce the identity, and (when a router
    // address was given) start the background label exchanger pushing
    // boundary pseudo-labels for cross-shard boosting.
    if let Some(ctx) = engine.shard() {
        println!(
            "shard           : {} of {} ({} owned + {} halo nodes)",
            ctx.identity.shard_id,
            ctx.identity.num_shards,
            ctx.identity.num_owned(),
            ctx.identity.num_locals() - ctx.identity.num_owned(),
        );
    }
    let exchanger = match (engine.shard(), args.get("router")) {
        (Some(_), Some(router)) => {
            let addr: std::net::SocketAddr = router
                .parse()
                .map_err(|_| format!("bad --router '{router}' (want IP:PORT)"))?;
            let interval_ms: u64 = args.num_or("exchange-interval-ms", 200)?;
            println!(
                "label exchange  : pushing to http://{addr}/v1/labels every {interval_ms}ms"
            );
            Some(mqo_serve::LabelExchanger::start(
                Arc::clone(&engine),
                addr,
                std::time::Duration::from_millis(interval_ms),
            ))
        }
        _ => None,
    };

    mqo_serve::signal::install_term_handler();
    while !mqo_serve::signal::term_requested() && !engine.drain_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    println!("drain requested : finishing in-flight work");
    if let Some(p) = proxy {
        let injected = p.injected();
        p.stop();
        println!("chaos proxy     : stopped after {injected} injected fault(s)");
    }
    let report = server.drain();
    // Stop the exchanger after the drain so the last in-flight batch's
    // boundary labels still get a final push.
    if let Some(ex) = exchanger {
        ex.stop();
    }

    let totals = engine.totals();
    println!("queries         : {} ({} replayed)", report.queries, report.replayed);
    println!("tokens billed   : {}", totals.prompt_tokens);
    if report.journal_sealed {
        if let Some(j) = engine.journal() {
            println!("journal sealed  : {}", j.path().display());
        }
    }
    let cstats = engine.cache_stats();
    if cache_cap > 0 {
        println!(
            "cache           : {} hit, {} miss, {} coalesced ({:.1}% served)",
            cstats.cache.hits,
            cstats.cache.misses,
            cstats.coalesced,
            100.0 * cstats.serve_rate(),
        );
    }
    let (flight_slow, flight_errors) = engine.flight().retained();
    println!(
        "flight recorder : {flight_slow} slow + {flight_errors} error request(s) retained"
    );
    if let Some(path) = args.get("flight-dump") {
        std::fs::write(path, engine.flight().to_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("flight dump     : {path}");
    }
    for t in &engine.slo().report().tenants {
        println!(
            "slo [{}]        : short burn {:.2} ({} good / {} bad), long burn {:.2} ({} good / {} bad)",
            t.tenant,
            t.short.burn_rate,
            t.short.good,
            t.short.bad,
            t.long.burn_rate,
            t.long.good,
            t.long.bad,
        );
    }
    if let Some(path) = args.get("cost-json") {
        let ledger_report = engine.ledger().report();
        std::fs::write(path, ledger_report.to_json(totals.prompt_tokens))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "cost ledger     : {path} (reconciles with meter: {})",
            ledger_report.reconciles_with(totals.prompt_tokens)
        );
    }
    if let Some(spans) = engine.chrome_span_count() {
        println!(
            "chrome trace    : {} ({spans} spans)",
            args.get("trace-chrome").unwrap_or_default()
        );
    }
    if let Some(path) = args.get("stats-json") {
        std::fs::write(path, engine.stats_json(None, workers))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("stats written   : {path}");
    }
    Ok(())
}

/// Cut a dataset into per-shard bundles plus the shard map.
fn cmd_partition(args: &Args) -> Result<(), CliError> {
    let arg = args.pos(0);
    let seed = args.num_or("seed", 42u64)?;
    let bundle = resolve_bundle(arg, args.num("scale")?, seed)?;
    let shards: u32 = args.num("shards")?.ok_or("missing --shards K")?;
    if shards == 0 || shards as usize > bundle.tag.num_nodes() {
        return Err(CliError::Usage(format!(
            "--shards must be in 1..={} for this graph",
            bundle.tag.num_nodes()
        )));
    }
    let strategy = match args.get("strategy") {
        None | Some("edge-cut") => mqo_shard::PartitionStrategy::EdgeCut,
        Some("ring") => mqo_shard::PartitionStrategy::Ring,
        Some(other) => {
            return Err(CliError::Usage(format!("unknown strategy '{other}' (edge-cut|ring)")))
        }
    };
    let out_dir = args.get("out-dir").ok_or("missing --out-dir DIR")?;
    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;

    let map = mqo_shard::partition(bundle.tag.graph(), shards, seed, strategy);
    let map_path = format!("{out_dir}/shard-map.bin");
    map.save(&map_path).map_err(|e| format!("cannot save shard map: {e}"))?;
    println!(
        "partitioned {} ({} nodes, {} edges) into {} shard(s), seed {}",
        bundle.tag.name(),
        bundle.tag.num_nodes(),
        bundle.tag.num_edges(),
        shards,
        seed
    );
    println!("shard map       : {map_path}");
    for s in 0..shards {
        let sb = mqo_shard::extract_shard(&bundle, &map, s);
        let path = format!("{out_dir}/shard-{s}.bin");
        sb.save(&path).map_err(|e| format!("cannot save shard {s}: {e}"))?;
        let stats = map.stats(s);
        println!(
            "  shard {s}      : {} owned + {} halo nodes, {} internal / {} cut edges → {path}",
            stats.owned_nodes,
            sb.num_locals() - sb.num_owned(),
            stats.internal_edges,
            stats.cut_edges,
        );
    }
    let cut_pct = if bundle.tag.num_edges() == 0 {
        0.0
    } else {
        100.0 * map.total_cut() as f64 / bundle.tag.num_edges() as f64
    };
    println!(
        "total cut       : {} of {} edges ({cut_pct:.2}%)",
        map.total_cut(),
        bundle.tag.num_edges()
    );
    if let Some(path) = args.get("stats-json") {
        std::fs::write(path, map.stats_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("stats written   : {path}");
    }
    Ok(())
}

/// Front a set of shard workers with the consistent routing layer.
fn cmd_route(args: &Args) -> Result<(), CliError> {
    let map_path = args.pos(0);
    let map = mqo_shard::ShardMap::load(map_path)
        .map_err(|e| format!("cannot load shard map {map_path}: {e}"))?;
    let workers_spec = args
        .get("workers")
        .ok_or("missing --workers ADDR,ADDR,... (one per shard, in shard-id order)")?;
    let shards: Vec<std::net::SocketAddr> = workers_spec
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad worker address '{}'", s.trim())))
        .collect::<Result<_, String>>()?;
    if shards.len() as u32 != map.num_shards() {
        return Err(format!(
            "map has {} shards but --workers lists {} address(es)",
            map.num_shards(),
            shards.len()
        )
        .into());
    }
    let mut cfg = mqo_shard::RouterConfig::new(shards);
    if let Some(n) = args.num("eject-after")? {
        cfg.eject_after = n;
    }
    if let Some(ms) = args.num("probe-interval-ms")? {
        cfg.probe_interval = std::time::Duration::from_millis(ms);
    }
    let addr = args.get("addr").map(String::from).unwrap_or_else(|| "127.0.0.1:9090".into());
    let num_shards = map.num_shards();
    let router = mqo_shard::Router::start(&addr, map, cfg)
        .map_err(|e| format!("cannot route on {addr}: {e}"))?;
    println!(
        "routing         : http://{}/v1/classify over {num_shards} shard(s)",
        router.addr()
    );
    println!("endpoints       : /v1/healthz /v1/stats /v1/labels /metrics");
    if let Some(path) = args.get("addr-file") {
        std::fs::write(path, format!("{}\n", router.addr()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    mqo_serve::signal::install_term_handler();
    while !mqo_serve::signal::term_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    println!("shutting down   : router");
    router.shutdown();
    Ok(())
}

fn cmd_plan(args: &Args) -> Result<(), CliError> {
    let arg = args.pos(0);
    let seed = 42;
    let bundle = resolve_bundle(arg, None, seed)?;
    let dollars: f64 = args.num("dollars")?.ok_or("missing --dollars X")?;
    let queries: usize = args.num_or("queries", 1000)?;
    let method = args.get("method").unwrap_or("1hop");

    let split = run::split(&bundle, queries, seed)?;
    let llm = SimLlm::new(
        bundle.lexicon.clone(),
        bundle.tag.class_names().to_vec(),
        ModelProfile::gpt35(),
    );
    let exec = Executor::new(&bundle.tag, &llm, run::max_neighbors(&bundle), seed);
    let predictor = run::make_predictor(method, &bundle.tag)?;
    let labels = LabelStore::from_split(&bundle.tag, &split);
    let plan = plan_campaign(
        &exec,
        predictor.as_ref(),
        &labels,
        split.queries(),
        30,
        &GPT_35_TURBO_0125,
        dollars,
    )
    .map_err(|e| format!("plan: {e}"))?;
    println!("campaign plan for {} × {} queries ({method}):", bundle.tag.name(), plan.queries);
    println!(
        "  mean tokens/query    : {:.0} ({:.0} neighbor text)",
        plan.tokens_full, plan.tokens_neighbor
    );
    println!(
        "  unoptimized          : {:.0} tokens = ${:.4}",
        plan.est_tokens_unpruned, plan.est_cost_unpruned
    );
    println!("  budget               : ${dollars:.4}");
    println!("  → prune τ            : {:.0}%", plan.tau * 100.0);
    println!(
        "  planned              : {:.0} tokens = ${:.4}",
        plan.est_tokens_planned, plan.est_cost_planned
    );
    Ok(())
}

fn cmd_tables(_: &Args) -> Result<(), CliError> {
    println!(
        "table/figure → regenerating binary (cargo run --release -p mqo-bench --bin <name>)"
    );
    for (what, bin) in [
        ("Fig. 1    — GNN vs LLM paradigms", "fig1_paradigm"),
        ("Fig. 2    — partial information decomposition", "fig2_pid"),
        ("Table II  — dataset statistics", "table2_datasets"),
        ("Table III — prompt templates", "table3_prompts"),
        ("Fig. 3    — IG proxy by label presence", "fig3_info_gain"),
        ("Table IV  — token pruning × methods", "table4_prune_methods"),
        ("Fig. 7    — budget sweep, ranked vs random", "fig7_budget_sweep"),
        ("Table V   — reducible tokens", "table5_savings"),
        ("Table VI  — inadequacy separation", "table6_inadequacy"),
        ("Fig. 8    — scheduling utilization", "fig8_scheduling"),
        ("Table VII — query boosting", "table7_boost"),
        ("Table VIII— joint strategy", "table8_joint"),
        ("Table IX  — instruction-tuned backbones", "table9_instruct"),
        ("Table X   — link prediction", "table10_linkpred"),
        ("Extension — graph-level pruning (§VII)", "ext_graphlevel"),
        ("Analysis  — prefix sharing (§II-C context)", "prefix_sharing"),
        ("Analysis  — accuracy/cost frontier (intro)", "cost_frontier"),
        ("Ablations — γ, ranking quality, SNS dim", "ablations"),
        ("Calibration check", "calibrate"),
    ] {
        println!("  {what:44} {bin}");
    }
    Ok(())
}

/// A verb's entry point.
type Command = fn(&Args) -> Result<(), CliError>;

/// The flag spec and entry point of each verb.
fn verb(name: &str) -> Option<(Spec, Command)> {
    Some(match name {
        "generate" => (GENERATE, cmd_generate),
        "inspect" => (INSPECT, cmd_inspect),
        "classify" => (CLASSIFY, cmd_classify),
        "plan" => (PLAN, cmd_plan),
        "serve" => (SERVE, cmd_serve),
        "partition" => (PARTITION, cmd_partition),
        "route" => (ROUTE, cmd_route),
        "tables" => (TABLES, cmd_tables),
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((spec, command)) = args.first().and_then(|v| verb(v)) else { return usage() };
    match Args::parse(&args[1..], &spec).and_then(|parsed| command(&parsed)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => e.exit_code(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, CliError> {
        let words: Vec<String> = line.split_whitespace().map(String::from).collect();
        let (spec, _) = verb(&words[0]).expect("known verb");
        Args::parse(&words[1..], &spec)
    }

    /// Every invocation shape the smoke scripts, the README and the
    /// benchmark harness pass must still parse.
    #[test]
    fn documented_invocations_parse() {
        for line in [
            "generate cora --out cora.mqotag",
            "generate ogbn-products --scale 0.1 --seed 7 --out p.bin",
            "inspect cora.mqotag",
            "plan cora --dollars 0.05 --queries 1000",
            "tables",
            "classify cora.mqotag --method sns --prune 0.2 --boost",
            "classify cora --queries 120 --repeat 3 --seed 42 --threads 4 \
             --stats-json s.json",
            "classify cora --queries 200 --boost --trace t.jsonl --trace-chrome c.json \
             --serve-metrics 127.0.0.1:0 --cost-json cost.json",
            "classify cora --queries 120 --seed 42 --faults error=0.10,malformed=0.05 \
             --journal j.jsonl --fault-kill-after 60 --resume --dump-records r.jsonl",
            "classify cora --queries 120 --boost --deterministic --threads 4 --seed 42 \
             --no-cache --budget 2000 --retries 3 --cache-cap 64 --model gpt4o-mini",
            "serve cora --addr 127.0.0.1:0 --addr-file a --workers 4 --queue-cap 32 \
             --queries 120 --seed 42 --no-cache --faults latency=1.0,latency-micros=20000",
            "serve cora.bin --addr 127.0.0.1:0 --addr-file a --tenants throttled=2000 \
             --journal s.jsonl --resume --slo-p99-ms 250 --flight-dump f.json \
             --trace-chrome t.json --cost-json c.json --stats-json s.json --scale 0.5",
            "serve cora --addr 127.0.0.1:0 --addr-file a \
             --chaos reset=0.15,stall=0.05,partial=0.15,abort=0.15,stall-millis=50 \
             --chaos-seed 42 --chaos-addr-file d",
            "serve shard-0.bin --shard-id 0 --shard-map m.bin --router 127.0.0.1:9090 \
             --exchange-interval-ms 100 --boost --queries 400 --seed 42 \
             --addr 127.0.0.1:0 --addr-file w.addr --workers 2 --queue-cap 32",
            "partition ogbn-products --scale 0.41 --seed 42 --shards 4 --out-dir d \
             --stats-json p.json --strategy ring",
            "route m.bin --workers 127.0.0.1:8080,127.0.0.1:8081 --addr 127.0.0.1:9090 \
             --addr-file r.addr --eject-after 3 --probe-interval-ms 250",
        ] {
            let args = parse(line).unwrap_or_else(|e| panic!("{line:?} must parse: {e}"));
            if line.starts_with("classify") {
                if let Err(e) = classify_policy(&args) {
                    panic!("{line:?} must select a policy: {e}");
                }
            }
        }
    }

    /// Classify flags the chosen policy would clamp or ignore are refused
    /// (exit 2, naming the flag) before any dataset loads.
    #[test]
    fn clamped_or_ignored_classify_flags_are_refused() {
        for (line, flag) in [
            ("classify cora --threads 0", "--threads"),
            ("classify cora --boost --threads 0", "--threads"),
            ("classify cora --deterministic", "--deterministic"),
            ("classify cora --threads 4 --deterministic", "--deterministic"),
        ] {
            match classify_policy(&parse(line).unwrap()) {
                Err(CliError::Usage(m)) => assert!(m.contains(flag), "{line:?}: {m}"),
                other => panic!("{line:?} should be refused, got {other:?}"),
            }
        }
    }

    #[test]
    fn misspelled_or_misplaced_flags_are_refused() {
        for (line, why) in [
            ("classify cora --parallel 4", "unknown flag '--parallel'"),
            ("classify cora --batch 16", "unknown flag '--batch'"),
            ("classify cora --queries", "--queries needs a value"),
            ("classify cora extra", "unexpected argument 'extra'"),
            ("route --workers a,b", "missing shard-map file"),
            ("route m.bin --boost", "unknown flag '--boost'"),
        ] {
            match parse(line) {
                Err(CliError::Usage(m)) => assert!(m.contains(why), "{line:?}: {m}"),
                other => panic!("{line:?} should be refused, got {other:?}"),
            }
        }
        // A flag the verb declares but whose value is not a number.
        let args = parse("classify cora --scale abc").unwrap();
        assert!(matches!(args.num::<f64>("scale"), Err(CliError::Usage(_))));
    }
}
