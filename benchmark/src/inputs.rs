//! Untimed input preparation: dataset files and shard bundles, made once
//! per `mqo` build with `mqo generate` and `mqo partition`.

use crate::proc::Proc;
use std::io;
use std::path::{Path, PathBuf};
use std::time::UNIX_EPOCH;

/// Seed of the generated graphs and of the partition. Fixed: the
/// workload seed varies the requests, not the graph.
const DATA_SEED: &str = "42";

/// Prepared input files.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Cora dataset file.
    pub cora: PathBuf,
    /// ogbn-products dataset file.
    pub products: PathBuf,
    /// `mqo partition` output (2 shards) of `cora`.
    pub cora_shards: PathBuf,
    /// `mqo partition` output (2 shards) of `products`.
    pub products_shards: PathBuf,
}

impl Inputs {
    fn at(dir: &Path) -> Inputs {
        Inputs {
            cora: dir.join("cora.mqotag"),
            products: dir.join("products.mqotag"),
            cora_shards: dir.join("cora-shards"),
            products_shards: dir.join("products-shards"),
        }
    }

    /// The dataset file of `dataset`.
    pub fn data(&self, dataset: crate::workload::Dataset) -> &Path {
        match dataset {
            crate::workload::Dataset::Cora => &self.cora,
            crate::workload::Dataset::Products => &self.products,
        }
    }

    /// The partition directory of `dataset`.
    pub fn shards(&self, dataset: crate::workload::Dataset) -> &Path {
        match dataset {
            crate::workload::Dataset::Cora => &self.cora_shards,
            crate::workload::Dataset::Products => &self.products_shards,
        }
    }
}

/// Identity of an `mqo` binary: inputs made by another build are remade.
fn stamp(mqo: &Path, products_scale: f64) -> io::Result<String> {
    let meta = std::fs::metadata(mqo)?;
    let mtime = meta.modified()?.duration_since(UNIX_EPOCH).unwrap_or_default().as_nanos();
    Ok(format!("{} {} {mtime} {products_scale}\n", mqo.display(), meta.len()))
}

/// Run `mqo args...` to completion, logging to `dir/<verb>-<n>.log`.
fn run(mqo: &Path, args: &[&str], dir: &Path, n: usize) -> io::Result<()> {
    let log = dir.join(format!("{}-{n}.log", args[0]));
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let usage = Proc::spawn("mqo", mqo, &args, &log)?.wait_usage()?;
    if usage.success {
        Ok(())
    } else {
        Err(io::Error::other(format!("mqo {} failed; see {}", args.join(" "), log.display())))
    }
}

/// Make (or reuse) the inputs under `work/inputs/`, with ogbn-products
/// generated at `products_scale`.
pub fn prepare(mqo: &Path, work: &Path, products_scale: f64) -> io::Result<Inputs> {
    let root = work.join("inputs");
    let dir = root.join(format!("products-{products_scale}"));
    let want = stamp(mqo, products_scale)?;
    if std::fs::read_to_string(dir.join("stamp")).ok().as_deref() == Some(want.as_str()) {
        return Ok(Inputs::at(&dir));
    }
    let tmp = root.join(format!("products-{products_scale}.tmp"));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp)?;
    let staged = Inputs::at(&tmp);
    let s = |p: &Path| p.to_string_lossy().into_owned();
    let scale = products_scale.to_string();
    eprintln!("preparing inputs in {}", dir.display());
    let (cora, products) = (s(&staged.cora), s(&staged.products));
    run(mqo, &["generate", "cora", "--seed", DATA_SEED, "--out", &cora], &tmp, 0)?;
    let products_args = [
        "generate",
        "ogbn-products",
        "--scale",
        &scale,
        "--seed",
        DATA_SEED,
        "--out",
        &products,
    ];
    run(mqo, &products_args, &tmp, 1)?;
    for (n, (data, out)) in [(cora, &staged.cora_shards), (products, &staged.products_shards)]
        .into_iter()
        .enumerate()
    {
        let args =
            ["partition", &data, "--shards", "2", "--seed", DATA_SEED, "--out-dir", &s(out)];
        run(mqo, &args, &tmp, n)?;
    }
    std::fs::write(tmp.join("stamp"), &want)?;
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::rename(&tmp, &dir)?;
    Ok(Inputs::at(&dir))
}
