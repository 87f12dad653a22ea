//! Subcommand implementations, factored for testability: every command
//! returns its output as a `String`.

use circlekit::detect::{detect_circles, girvan_newman, louvain};
use circlekit::discover::{
    best_match_f1, discover as discover_ego, render_suggestion, Candidate, DiscoverConfig,
    EgoView, EvalScores, Suggestion,
};
use circlekit::experiments::characterize;
use circlekit::graph::{
    parse_edge_list_with_policy, parse_groups_with_policy, write_edge_list, write_groups, Graph,
    IngestPolicy, VertexSet,
};
use circlekit::live::{wal_path_for, CrashPoint, LiveSnapshot, Mutation};
use circlekit::metrics::{DegreeKind, DegreeStats};
use circlekit::render::render_score_table;
use circlekit::scoring::{parse_thread_count, Scorer, ScoringFunction};
use circlekit::shard::{manifest_for, parse_shard_count, shard_graph};
use circlekit::statfit::analyze_tail;
use circlekit::store::{
    crc32, file_is_snapshot, file_snapshot_format, save_cks2_snapshot, save_shard_snapshot,
    save_snapshot, section_infos, stream_pack_cks2, write_snapshot, Cks2PackOptions,
    MappedSnapshot, SnapshotFormat, StreamPackOptions,
};
use circlekit::synth::{presets, GroupKind, SynthDataset};
use circlekit_serve::{Client, CoordinatorConfig, ServeConfig, Server, SnapshotRegistry};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::fs;

/// Parses and runs a command line (without the program name).
pub fn dispatch(args: &[String]) -> Result<String, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage());
    };
    match cmd.as_str() {
        "generate" => generate(rest),
        "score" => score(rest),
        "characterize" => characterize_cmd(rest),
        "fit-degrees" => fit_degrees(rest),
        "detect" => detect(rest),
        "discover" => discover_cmd(rest),
        "synth" => synth_cmd(rest),
        "pack" => pack(rest),
        "inspect" => inspect(rest),
        "live" => live_cmd(rest),
        "serve" => serve(rest),
        "query" => query(rest),
        "--help" | "-h" | "help" => Ok(usage()),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

fn usage() -> String {
    "usage:\n  \
     circlekit generate <google+|twitter|livejournal|orkut|magno> [--scale F] [--seed N] --edges FILE [--groups FILE]\n  \
     circlekit score        --edges FILE [--groups FILE] [--undirected] [--all] [--threads N]\n  \
     circlekit characterize --edges FILE [--undirected] [--sources N]\n  \
     circlekit fit-degrees  --edges FILE [--undirected] [--kind in|out|total]\n  \
     circlekit detect       --edges FILE --ego NODE [--min-size N] [--undirected]\n  \
     circlekit discover     --edges FILE --ego NODE [--seed S] [--threads N] [--min-size N] [--top N]\n  \
     circlekit discover     --eval --edges FILE --groups FILE --owners FILE [--seed S] [--threads N]\n                         \
     [--min-size N] [--top N] [--min-f1 X]\n  \
     circlekit synth ego-circles <google+|twitter> [--scale F] [--seed N] --edges FILE\n                         \
     [--groups FILE] [--owners FILE]\n  \
     circlekit pack         --edges FILE [--groups FILE] [--undirected] --out FILE.cks [--force]\n                         \
     [--format cks1|cks2] [--stream] [--memory-budget-mb N]\n                         \
     [--shards N [--shard-index I]]\n  \
     circlekit inspect      --snapshot FILE.cks [--json]\n  \
     circlekit live apply   --snapshot FILE.cks --script FILE\n  \
     circlekit live scores  --snapshot FILE.cks\n  \
     circlekit live compact --snapshot FILE.cks [--crash-point tmp-written|renamed]\n  \
     circlekit serve        --snapshot FILE.cks [--snapshot FILE2.cks ...] [--listen ADDR]\n                         \
     [--threads N] [--workers N] [--queue N] [--batch N] [--cache N]\n                         \
     [--replica-of HOST:PORT] [--repl-crash-point POINT]\n  \
     circlekit serve        --coordinator --shards HOST:PORT,HOST:PORT,... [--listen ADDR]\n                         \
     [--shard-count N] [--shard-deadline-ms MS]\n  \
     circlekit query        --addr HOST:PORT [--timeout-ms N] [--binary]\n                         \
     <health|stats|list-snapshots|repl-status|shutdown>\n  \
     circlekit query        --addr HOST:PORT <list-groups|score-table> --snapshot ID [--all]\n  \
     circlekit query        --addr HOST:PORT score-group --snapshot ID --group N [--all] [--deadline-ms N]\n  \
     circlekit query        --addr HOST:PORT score-set   --snapshot ID --members 0,1,2 [--all]\n  \
     circlekit query        --addr HOST:PORT baseline    --snapshot ID --group N [--samples N] [--seed N]\n  \
     circlekit query        --addr HOST:PORT apply-mutations --snapshot ID --script FILE\n  \
     circlekit query        --addr HOST:PORT watch-scores    --snapshot ID --group N\n  \
     circlekit query        --addr HOST:PORT compact         --snapshot ID\n  \
     circlekit query        --addr HOST:PORT suggest-circles --snapshot ID --ego NODE [--seed S]\n                         \
     [--min-size N] [--top N]\n\
     \n\
     every --edges argument may be a text edge list or a CKS1/CKS2 binary\n  \
     snapshot (detected by magic); snapshots carry their own directedness\n  \
     and, when packed with --groups, their group collections, so score\n  \
     can run from a single .cks file; pack --format cks2 writes the\n  \
     compressed format and --stream packs straight from the edge file\n  \
     in bounded memory; pack --shards N splits a CKS1 snapshot into N\n  \
     halo sub-snapshots (FILE.shardI.cks) served by shard processes\n  \
     behind serve --coordinator\n\
     \n\
     every command that reads text files accepts --on-error fail|skip|report:\n  \
     fail (default) aborts on the first malformed line, skip drops bad\n  \
     lines silently, report drops them and prints an ingest summary\n"
        .to_string()
}

/// How file-reading commands treat malformed input, from `--on-error`.
struct Ingest {
    policy: IngestPolicy,
    /// `--on-error report`: print the [`circlekit::graph::IngestReport`].
    verbose: bool,
}

impl Ingest {
    fn from_flags(flags: &Flags<'_>) -> Result<Ingest, String> {
        let value = flags.get("on-error").unwrap_or("fail");
        let policy = IngestPolicy::from_cli(value)
            .ok_or_else(|| format!("bad --on-error {value:?} (fail|skip|report)"))?;
        Ok(Ingest { policy, verbose: value == "report" })
    }
}

/// Tiny flag parser: returns positional args and looks up `--key value` /
/// `--switch` entries.
struct Flags<'a> {
    positional: Vec<&'a str>,
    pairs: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Flags<'a> {
    fn parse(args: &'a [String], switches: &[&str]) -> Result<Flags<'a>, String> {
        let mut positional = Vec::new();
        let mut pairs = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if switches.contains(&name) {
                    pairs.push((name, None));
                } else {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    pairs.push((name, Some(value.as_str())));
                }
            } else {
                positional.push(arg.as_str());
            }
        }
        Ok(Flags { positional, pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| *k == name)
            .and_then(|(_, v)| *v)
    }

    fn has(&self, name: &str) -> bool {
        self.pairs.iter().any(|(k, _)| *k == name)
    }

    /// Every value given for a repeatable flag, in order.
    fn all(&self, name: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| *k == name)
            .filter_map(|(_, v)| *v)
            .collect()
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing --{name}"))
    }

    fn parse_value<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{name}: {v:?}")),
        }
    }
}

/// A dataset loaded from `--edges`: the graph, plus the group
/// collections embedded in it when the input was a CKS1 snapshot packed
/// with groups (text edge lists never carry groups).
struct Loaded {
    graph: Graph,
    embedded_groups: Vec<VertexSet>,
}

/// Loads `--edges` — a text edge list or a CKS1 snapshot, auto-detected
/// by magic — under the `--on-error` policy (text only; snapshots are
/// checksummed, so there is no lenient mode to apply). In report mode
/// the text ingest summary is appended to `notes` (which callers prepend
/// to their own output).
fn load_graph(flags: &Flags<'_>, ingest: &Ingest, notes: &mut String) -> Result<Loaded, String> {
    let path = flags.required("edges")?;
    if file_is_snapshot(path).map_err(|e| format!("reading {path}: {e}"))? {
        let mapped = MappedSnapshot::open(path).map_err(|e| format!("{path}: {e}"))?;
        let snap = mapped.load().map_err(|e| format!("{path}: {e}"))?;
        if flags.has("undirected") && snap.graph.is_directed() {
            return Err(format!(
                "{path} is a snapshot of a directed graph; drop --undirected \
                 (snapshots carry their own directedness)"
            ));
        }
        return Ok(Loaded { graph: snap.graph, embedded_groups: snap.groups });
    }
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let (edges, report) =
        parse_edge_list_with_policy(&text, ingest.policy).map_err(|e| format!("{path}: {e}"))?;
    if ingest.verbose {
        let _ = write!(notes, "{path}: {report}");
    }
    Ok(Loaded {
        graph: Graph::from_edges(!flags.has("undirected"), edges),
        embedded_groups: Vec::new(),
    })
}

/// Loads the groups to score: the `--groups` file when given (text,
/// validated against the graph under the `--on-error` policy), otherwise
/// the groups embedded in a snapshot `--edges` input.
fn load_groups(
    flags: &Flags<'_>,
    ingest: &Ingest,
    loaded: Loaded,
    notes: &mut String,
) -> Result<(Graph, Vec<VertexSet>), String> {
    let Some(groups_path) = flags.get("groups") else {
        if loaded.embedded_groups.is_empty() {
            return Err("missing --groups (and --edges is not a snapshot with embedded groups)"
                .to_string());
        }
        return Ok((loaded.graph, loaded.embedded_groups));
    };
    let text =
        fs::read_to_string(groups_path).map_err(|e| format!("reading {groups_path}: {e}"))?;
    let (groups, report) =
        parse_groups_with_policy(&text, Some(loaded.graph.node_count()), ingest.policy)
            .map_err(|e| format!("{groups_path}: {e}"))?;
    if ingest.verbose {
        let _ = write!(notes, "{groups_path}: {report}");
    }
    Ok((loaded.graph, groups))
}

fn generate(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args, &[])?;
    let preset = flags
        .positional
        .first()
        .ok_or("generate needs a preset name")?;
    let scale: f64 = flags.parse_value("scale", 0.01)?;
    let seed: u64 = flags.parse_value("seed", 2014)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let dataset: SynthDataset = match *preset {
        "google+" | "gplus" => presets::google_plus().scaled(scale).generate(&mut rng),
        "twitter" => presets::twitter().scaled(scale).generate(&mut rng),
        "livejournal" => presets::livejournal().scaled(scale).generate(&mut rng),
        "orkut" => presets::orkut().scaled(scale).generate(&mut rng),
        "magno" => presets::magno().scaled(scale).generate(&mut rng),
        other => return Err(format!("unknown preset {other:?}")),
    };

    let edges_path = flags.required("edges")?;
    let mut buf = Vec::new();
    write_edge_list(&dataset.graph, &mut buf).map_err(|e| e.to_string())?;
    fs::write(edges_path, buf).map_err(|e| format!("writing {edges_path}: {e}"))?;

    let mut out = String::new();
    let _ = writeln!(out, "{}", dataset.summary());
    let _ = writeln!(out, "wrote edges to {edges_path}");
    if let Some(groups_path) = flags.get("groups") {
        let mut buf = Vec::new();
        write_groups(&dataset.groups, &mut buf).map_err(|e| e.to_string())?;
        fs::write(groups_path, buf).map_err(|e| format!("writing {groups_path}: {e}"))?;
        let _ = writeln!(out, "wrote {} groups to {groups_path}", dataset.groups.len());
    } else if dataset.kind == GroupKind::Circles {
        let _ = writeln!(out, "hint: pass --groups FILE to export the circles too");
    }
    Ok(out)
}

fn score(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args, &["undirected", "all"])?;
    let ingest = Ingest::from_flags(&flags)?;
    let mut notes = String::new();
    let loaded = load_graph(&flags, &ingest, &mut notes)?;
    let (graph, groups) = load_groups(&flags, &ingest, loaded, &mut notes)?;

    let functions: &[ScoringFunction] = if flags.has("all") {
        &ScoringFunction::ALL
    } else {
        &ScoringFunction::PAPER
    };
    let threads = threads_flag(&flags)?;
    let scorer = Scorer::new(&graph);
    let table = scorer.score_table_parallel(functions, &groups, threads);

    let sizes: Vec<usize> = groups.iter().map(VertexSet::len).collect();
    let rows: Vec<Vec<f64>> = (0..groups.len()).map(|i| table.row(i).to_vec()).collect();
    let mut out = notes;
    out.push_str(&render_score_table(functions, &sizes, &rows));
    Ok(out)
}

/// The shared `--threads` handling: absent means [`default_threads`],
/// anything else goes through [`parse_thread_count`] so every subcommand
/// accepts the same grammar and emits the same diagnostics.
///
/// [`default_threads`]: circlekit::scoring::default_threads
fn threads_flag(flags: &Flags<'_>) -> Result<usize, String> {
    match flags.get("threads") {
        None => Ok(circlekit::scoring::default_threads()),
        Some(value) => parse_thread_count(value),
    }
}

fn characterize_cmd(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args, &["undirected"])?;
    let ingest = Ingest::from_flags(&flags)?;
    let mut notes = String::new();
    let graph = load_graph(&flags, &ingest, &mut notes)?.graph;
    let sources: usize = flags.parse_value("sources", 32)?;
    let seed: u64 = flags.parse_value("seed", 2014)?;
    let dataset = SynthDataset {
        name: flags.required("edges")?.to_string(),
        graph,
        groups: Vec::new(),
        egos: Vec::new(),
        ego_owners: Vec::new(),
        kind: GroupKind::Communities,
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let row = characterize(&dataset, sources, &mut rng);
    notes.push_str(&circlekit::render::render_table2(&[row]));
    Ok(notes)
}

fn fit_degrees(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args, &["undirected"])?;
    let ingest = Ingest::from_flags(&flags)?;
    let mut notes = String::new();
    let graph = load_graph(&flags, &ingest, &mut notes)?.graph;
    let kind = match flags.get("kind").unwrap_or("in") {
        "in" => DegreeKind::In,
        "out" => DegreeKind::Out,
        "total" => DegreeKind::Total,
        other => return Err(format!("bad --kind {other:?} (in|out|total)")),
    };
    let stats = DegreeStats::new(&graph, kind);
    let report = analyze_tail(&stats.positive_as_f64()).map_err(|e| e.to_string())?;
    let mut out = notes;
    let _ = writeln!(out, "degrees analysed: {} (mean {:.2})", report.tail_len, stats.average());
    let _ = writeln!(
        out,
        "best family: {}   ks: pl={:.4} ln={:.4} exp={:.4}",
        report.best, report.ks[0], report.ks[1], report.ks[2]
    );
    let _ = writeln!(
        out,
        "tail power law: alpha={:.3} x_min={} (ks {:.4}, n={})",
        report.scanned.alpha, report.scanned.x_min, report.scanned.ks, report.scanned.tail_len
    );
    let _ = writeln!(
        out,
        "log-normal: mu={:.3} sigma={:.3}   exponential: lambda={:.4}",
        report.log_normal.mu, report.log_normal.sigma, report.exponential.lambda
    );
    Ok(out)
}

fn detect(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args, &["undirected"])?;
    let ingest = Ingest::from_flags(&flags)?;
    let mut notes = String::new();
    let graph = load_graph(&flags, &ingest, &mut notes)?.graph;
    let ego: u32 = flags
        .required("ego")?
        .parse()
        .map_err(|_| "bad --ego value".to_string())?;
    if ego as usize >= graph.node_count() {
        return Err(format!(
            "ego {ego} exceeds graph node count {}",
            graph.node_count()
        ));
    }
    let min_size: usize = flags.parse_value("min-size", 3)?;
    let seed: u64 = flags.parse_value("seed", 2014)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let circles = detect_circles(&graph, ego, min_size, &mut rng);
    let mut buf = Vec::new();
    write_groups(&circles, &mut buf).map_err(|e| e.to_string())?;
    let mut out = notes;
    let _ = writeln!(
        out,
        "detected {} circles (>= {min_size} members) in the ego network of {ego}",
        circles.len()
    );
    out.push_str(std::str::from_utf8(&buf).expect("ascii output"));
    Ok(out)
}

/// The shared `--seed/--threads/--min-size/--top` handling for the
/// `discover` command and its eval mode, mirroring [`DiscoverConfig`]
/// defaults so `circlekit discover` and `query suggest-circles` agree.
fn discover_flags(flags: &Flags<'_>) -> Result<DiscoverConfig, String> {
    Ok(DiscoverConfig {
        seed: flags.parse_value("seed", circlekit::discover::DEFAULT_SEED)?,
        threads: threads_flag(flags)?,
        min_size: flags.parse_value("min-size", circlekit::discover::DEFAULT_MIN_SIZE)?,
        max_size: 0,
        top: flags.parse_value("top", circlekit::discover::DEFAULT_TOP)?,
    })
}

fn discover_cmd(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args, &["undirected", "eval"])?;
    if flags.has("eval") {
        return discover_eval(&flags);
    }
    let ingest = Ingest::from_flags(&flags)?;
    let mut notes = String::new();
    let graph = load_graph(&flags, &ingest, &mut notes)?.graph;
    let ego: u32 = flags
        .required("ego")?
        .parse()
        .map_err(|_| "bad --ego value".to_string())?;
    if ego as usize >= graph.node_count() {
        return Err(format!(
            "ego {ego} exceeds graph node count {}",
            graph.node_count()
        ));
    }
    let config = discover_flags(&flags)?;
    let suggestion = discover_ego(&EgoView::from_graph(&graph, ego), &config);
    let mut out = notes;
    out.push_str(&render_suggestion(&suggestion));
    Ok(out)
}

/// `discover --eval`: scores discovery against planted ground-truth
/// circles (from `synth ego-circles`), with the `detect` crate's louvain
/// and girvan-newman as baselines, each restricted to the same ego
/// subgraph. `--min-f1 X` turns the table into a gate for CI.
fn discover_eval(flags: &Flags<'_>) -> Result<String, String> {
    let ingest = Ingest::from_flags(flags)?;
    let mut notes = String::new();
    let loaded = load_graph(flags, &ingest, &mut notes)?;
    let (graph, circles) = load_groups(flags, &ingest, loaded, &mut notes)?;
    let owners_path = flags.required("owners")?;
    let owners_text =
        fs::read_to_string(owners_path).map_err(|e| format!("reading {owners_path}: {e}"))?;
    let owners: Vec<u32> = owners_text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.trim().parse().map_err(|_| format!("{owners_path}: bad owner line {l:?}")))
        .collect::<Result<_, String>>()?;
    if owners.len() != circles.len() {
        return Err(format!(
            "{owners_path} has {} owners but --groups has {} circles",
            owners.len(),
            circles.len()
        ));
    }
    let mut by_ego: std::collections::BTreeMap<u32, Vec<VertexSet>> =
        std::collections::BTreeMap::new();
    for (owner, circle) in owners.iter().zip(circles) {
        if *owner as usize >= graph.node_count() {
            return Err(format!("owner {owner} exceeds graph node count"));
        }
        by_ego.entry(*owner).or_default().push(circle);
    }
    if by_ego.is_empty() {
        return Err("no planted circles to evaluate".to_string());
    }
    let config = discover_flags(flags)?;
    let restrict = |view: &EgoView, sets: Vec<VertexSet>| -> Vec<VertexSet> {
        sets.iter()
            .filter(|s| s.len() >= config.min_size)
            .map(|s| view.to_parent(s.as_slice()))
            .collect()
    };
    let mut per_method: [Vec<EvalScores>; 3] = Default::default();
    for (&ego, planted) in &by_ego {
        let view = EgoView::from_graph(&graph, ego);
        let suggestion = discover_ego(&view, &config);
        let discovered: Vec<VertexSet> =
            suggestion.candidates.into_iter().map(|c| c.members).collect();
        let mut rng = SmallRng::seed_from_u64(config.seed ^ u64::from(ego));
        let lv = restrict(&view, louvain(&view.local, &mut rng));
        let gn = restrict(&view, girvan_newman(&view.local, planted.len().max(1)));
        per_method[0].push(best_match_f1(&discovered, planted));
        per_method[1].push(best_match_f1(&lv, planted));
        per_method[2].push(best_match_f1(&gn, planted));
    }
    let mut out = notes;
    let _ = writeln!(
        out,
        "eval over {} egos, {} planted circles (min-size {})",
        by_ego.len(),
        owners.len(),
        config.min_size
    );
    let _ = writeln!(out, "{:<14} {:>9} {:>9} {:>9}", "method", "precision", "recall", "f1");
    let mut discover_f1 = 0.0;
    for (name, scores) in ["discover", "louvain", "girvan-newman"].iter().zip(&per_method) {
        let mean = EvalScores::mean(scores);
        let _ = writeln!(
            out,
            "{name:<14} {:>9.4} {:>9.4} {:>9.4}",
            mean.precision, mean.recall, mean.f1
        );
        if *name == "discover" {
            discover_f1 = mean.f1;
        }
    }
    if let Some(threshold) = flags.get("min-f1") {
        let threshold: f64 =
            threshold.parse().map_err(|_| format!("bad --min-f1 {threshold:?}"))?;
        if discover_f1 < threshold {
            return Err(format!(
                "discover f1 {discover_f1:.4} is below --min-f1 {threshold}\n{out}"
            ));
        }
        let _ = writeln!(out, "f1 gate passed ({discover_f1:.4} >= {threshold})");
    }
    Ok(out)
}

fn synth_cmd(args: &[String]) -> Result<String, String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err("synth needs a subcommand (ego-circles)".to_string());
    };
    match sub.as_str() {
        "ego-circles" => synth_ego_circles(rest),
        other => Err(format!("unknown synth subcommand {other:?}")),
    }
}

/// Generates an ego-circle dataset (edges + planted circles + a per-circle
/// owners file) so `pack`, `discover --eval`, and the serve pipeline can
/// all consume the same ground truth.
fn synth_ego_circles(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args, &[])?;
    let preset = flags
        .positional
        .first()
        .ok_or("synth ego-circles needs a preset name (google+|twitter)")?;
    let scale: f64 = flags.parse_value("scale", 0.01)?;
    let seed: u64 = flags.parse_value("seed", 2014)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let dataset: SynthDataset = match *preset {
        "google+" | "gplus" => presets::google_plus().scaled(scale).generate(&mut rng),
        "twitter" => presets::twitter().scaled(scale).generate(&mut rng),
        other => return Err(format!("unknown ego-circle preset {other:?} (google+|twitter)")),
    };
    debug_assert_eq!(dataset.kind, GroupKind::Circles);

    let edges_path = flags.required("edges")?;
    let mut buf = Vec::new();
    write_edge_list(&dataset.graph, &mut buf).map_err(|e| e.to_string())?;
    fs::write(edges_path, buf).map_err(|e| format!("writing {edges_path}: {e}"))?;

    let mut out = String::new();
    let _ = writeln!(out, "{}", dataset.summary());
    let _ = writeln!(out, "wrote edges to {edges_path}");
    if let Some(groups_path) = flags.get("groups") {
        let mut buf = Vec::new();
        write_groups(&dataset.groups, &mut buf).map_err(|e| e.to_string())?;
        fs::write(groups_path, buf).map_err(|e| format!("writing {groups_path}: {e}"))?;
        let _ = writeln!(out, "wrote {} circles to {groups_path}", dataset.groups.len());
    }
    if let Some(owners_path) = flags.get("owners") {
        // Circles hold alters only (never the owner), so each circle is a
        // subset of exactly the alter windows it was carved from; the
        // first containing ego recovers the owner deterministically.
        let mut owners = String::new();
        for circle in &dataset.groups {
            let owner = dataset
                .egos
                .iter()
                .position(|alters| circle.as_slice().iter().all(|&m| alters.contains(m)))
                .map(|i| dataset.ego_owners[i])
                .ok_or_else(|| "internal: circle outside every ego's alter set".to_string())?;
            let _ = writeln!(owners, "{owner}");
        }
        fs::write(owners_path, owners).map_err(|e| format!("writing {owners_path}: {e}"))?;
        let _ = writeln!(out, "wrote {} circle owners to {owners_path}", dataset.groups.len());
    }
    Ok(out)
}

fn pack(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args, &["undirected", "force", "stream"])?;
    let ingest = Ingest::from_flags(&flags)?;
    let mut notes = String::new();
    let edges_path = flags.required("edges")?;
    if let Some(found) =
        file_snapshot_format(edges_path).map_err(|e| format!("reading {edges_path}: {e}"))?
    {
        return Err(format!("{edges_path} is already a {} snapshot", found.name()));
    }
    let format = match flags.get("format").unwrap_or("cks1") {
        "cks1" => SnapshotFormat::Cks1,
        "cks2" => SnapshotFormat::Cks2,
        other => return Err(format!("bad --format {other:?} (cks1|cks2)")),
    };
    if flags.has("stream") && format != SnapshotFormat::Cks2 {
        return Err("--stream requires --format cks2".to_string());
    }
    let shard_count = flags.get("shards").map(parse_shard_count).transpose()?;
    if shard_count.is_some() {
        if format != SnapshotFormat::Cks1 {
            return Err(
                "--shards requires --format cks1 (the shard manifest is a CKS1 section)"
                    .to_string(),
            );
        }
        if flags.has("stream") {
            return Err("--shards cannot stream; drop --stream".to_string());
        }
    } else if flags.get("shard-index").is_some() {
        return Err("--shard-index needs --shards N".to_string());
    }
    let out_path = flags.required("out")?;
    // In shard mode `--out` only names the family; the per-shard paths
    // derived from it carry their own overwrite checks.
    if shard_count.is_none() && !flags.has("force") && fs::metadata(out_path).is_ok() {
        return Err(format!(
            "{out_path} already exists; pass --force to overwrite it"
        ));
    }

    if flags.has("stream") {
        // Streamed packing never materialises the edge list: groups are
        // parsed without a node-count bound (the packer validates them
        // against the graph it discovers) and the edge file goes through
        // the external sort.
        let groups = match flags.get("groups") {
            None => Vec::new(),
            Some(groups_path) => {
                let text = fs::read_to_string(groups_path)
                    .map_err(|e| format!("reading {groups_path}: {e}"))?;
                let (groups, report) = parse_groups_with_policy(&text, None, ingest.policy)
                    .map_err(|e| format!("{groups_path}: {e}"))?;
                if ingest.verbose {
                    let _ = write!(notes, "{groups_path}: {report}");
                }
                groups
            }
        };
        let budget_mb: usize = flags.parse_value("memory-budget-mb", 256)?;
        let options = StreamPackOptions {
            directed: !flags.has("undirected"),
            memory_budget_bytes: budget_mb.max(1) << 20,
            ..StreamPackOptions::default()
        };
        let report = stream_pack_cks2(edges_path, &groups, out_path, &options)
            .map_err(|e| format!("packing {edges_path}: {e}"))?;
        let mut out = notes;
        let _ = writeln!(
            out,
            "packed {} nodes, {} edges, {} groups into {out_path} ({} bytes, cks2 streamed)",
            report.nodes,
            report.edge_count,
            groups.len(),
            report.bytes_written,
        );
        let _ = writeln!(
            out,
            "dropped {} self-loops, {} duplicate arcs; {} sorted runs spilled",
            report.self_loops_dropped, report.duplicates_dropped, report.runs_spilled
        );
        return Ok(out);
    }

    let loaded = load_graph(&flags, &ingest, &mut notes)?;
    let groups = match flags.get("groups") {
        None => Vec::new(),
        Some(groups_path) => {
            let text = fs::read_to_string(groups_path)
                .map_err(|e| format!("reading {groups_path}: {e}"))?;
            let (groups, report) =
                parse_groups_with_policy(&text, Some(loaded.graph.node_count()), ingest.policy)
                    .map_err(|e| format!("{groups_path}: {e}"))?;
            if ingest.verbose {
                let _ = write!(notes, "{groups_path}: {report}");
            }
            groups
        }
    };
    if let Some(count) = shard_count {
        return pack_shards(&flags, notes, &loaded.graph, &groups, count, out_path);
    }
    let bytes = match format {
        SnapshotFormat::Cks1 => save_snapshot(out_path, &loaded.graph, &groups),
        SnapshotFormat::Cks2 => save_cks2_snapshot(
            out_path,
            &loaded.graph,
            &groups,
            &Cks2PackOptions::default(),
        ),
    }
    .map_err(|e| format!("writing {out_path}: {e}"))?;
    let mut out = notes;
    let _ = writeln!(
        out,
        "packed {} nodes, {} edges, {} groups into {out_path} ({bytes} bytes, {})",
        loaded.graph.node_count(),
        loaded.graph.edge_count(),
        groups.len(),
        format.name(),
    );
    Ok(out)
}

/// `pack --shards N [--shard-index I]`: emits halo sub-snapshots
/// `<out>.shardI.cks`, every group collection included, each carrying a
/// shard manifest that binds it to the parent (count, index, parent
/// dimensions and median degree, and the CRC-32 of the parent's own
/// CKS1 image) so a coordinator refuses mismatched shard sets.
fn pack_shards(
    flags: &Flags<'_>,
    notes: String,
    graph: &Graph,
    groups: &[VertexSet],
    count: usize,
    out_path: &str,
) -> Result<String, String> {
    let count = u32::try_from(count).map_err(|_| format!("--shards {count} is too large"))?;
    let indices: Vec<u32> = match flags.get("shard-index") {
        None => (0..count).collect(),
        Some(value) => {
            let index: u32 = value
                .parse()
                .map_err(|_| format!("bad --shard-index {value:?}"))?;
            if index >= count {
                return Err(format!(
                    "--shard-index {index} is out of range for --shards {count}"
                ));
            }
            vec![index]
        }
    };
    // The parent CRC is taken over the parent's canonical CKS1 image,
    // so it equals `crc32` of the file a plain `pack` of the same input
    // would write — shards stay comparable to the parent snapshot.
    let mut parent_image = Vec::new();
    write_snapshot(graph, groups, &mut parent_image)
        .map_err(|e| format!("packing the parent image: {e}"))?;
    let parent_crc = crc32(&parent_image);
    let median = Scorer::new(graph).median_degree();
    let mut out = notes;
    let _ = writeln!(
        out,
        "sharding {} nodes, {} edges, {} groups {count} ways (parent crc32 {parent_crc:#010x})",
        graph.node_count(),
        graph.edge_count(),
        groups.len(),
    );
    for index in indices {
        let path = shard_out_path(out_path, index);
        if !flags.has("force") && fs::metadata(&path).is_ok() {
            return Err(format!("{path} already exists; pass --force to overwrite it"));
        }
        let manifest = manifest_for(graph, median, parent_crc, count, index);
        let sub = shard_graph(graph, count, index);
        let bytes = save_shard_snapshot(&path, &sub, groups, &manifest)
            .map_err(|e| format!("writing {path}: {e}"))?;
        let _ = writeln!(
            out,
            "shard {index}/{count}: {} halo edges into {path} ({bytes} bytes)",
            sub.edge_count(),
        );
    }
    Ok(out)
}

/// `web.cks` → `web.shard3.cks`; extensionless paths get the suffix
/// appended so the shard id is never lost.
fn shard_out_path(out_path: &str, index: u32) -> String {
    match out_path.strip_suffix(".cks") {
        Some(base) => format!("{base}.shard{index}.cks"),
        None => format!("{out_path}.shard{index}"),
    }
}

fn inspect(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args, &["json"])?;
    let path = flags.required("snapshot")?;
    let mapped = MappedSnapshot::open(path).map_err(|e| format!("{path}: {e}"))?;
    let (header, sections) =
        section_infos(mapped.bytes()).map_err(|e| format!("{path}: {e}"))?;
    let format = mapped
        .format()
        .ok_or_else(|| format!("{path}: not a snapshot"))?;

    // Per-format statistics beyond the shared header/section table.
    struct Stats {
        nodes: usize,
        edges: usize,
        arcs: u64,
        groups: usize,
        memberships: Option<u64>,
        wide: Option<bool>,
        compressed_adjacency_bytes: Option<u64>,
    }
    // Only CKS1 snapshots can carry a shard manifest.
    let shard = match format {
        SnapshotFormat::Cks1 => mapped.shard_manifest().map_err(|e| format!("{path}: {e}"))?,
        SnapshotFormat::Cks2 => None,
    };
    let stats = match format {
        SnapshotFormat::Cks1 => {
            let view = mapped.view().map_err(|e| format!("{path}: {e}"))?;
            Stats {
                nodes: view.node_count(),
                edges: view.edge_count(),
                arcs: view.arc_count() as u64,
                groups: view.group_count(),
                memberships: Some(view.member_count() as u64),
                wide: None,
                compressed_adjacency_bytes: None,
            }
        }
        SnapshotFormat::Cks2 => {
            let view = mapped.view2().map_err(|e| format!("{path}: {e}"))?;
            let arcs = if view.is_directed() {
                view.edge_count() as u64
            } else {
                2 * view.edge_count() as u64
            };
            Stats {
                nodes: view.node_count(),
                edges: view.edge_count(),
                arcs,
                groups: view.group_count(),
                memberships: None,
                wide: Some(view.is_wide()),
                compressed_adjacency_bytes: Some(view.compressed_adjacency_bytes()),
            }
        }
    };

    if flags.has("json") {
        use serde_json::Value;
        let field = |k: &str, v: Value| (k.to_string(), v);
        let mut fields = vec![
            field("path", Value::Str(path.to_string())),
            field("format", Value::Str(format.name().to_uppercase())),
            field("version", Value::UInt(circlekit::store::VERSION as u64)),
            field("bytes", Value::UInt(mapped.bytes().len() as u64)),
            field("flags", Value::UInt(header.flags as u64)),
            field("directed", Value::Bool(header.directed())),
            field("nodes", Value::UInt(stats.nodes as u64)),
            field("edges", Value::UInt(stats.edges as u64)),
            field("arcs", Value::UInt(stats.arcs)),
            field("groups", Value::UInt(stats.groups as u64)),
        ];
        if let Some(memberships) = stats.memberships {
            fields.push(field("memberships", Value::UInt(memberships)));
        }
        if let Some(wide) = stats.wide {
            fields.push(field("wide", Value::Bool(wide)));
        }
        if let Some(compressed) = stats.compressed_adjacency_bytes {
            fields.push(field("compressed_adjacency_bytes", Value::UInt(compressed)));
        }
        if let Some(m) = shard {
            fields.push(field(
                "shard",
                Value::Map(vec![
                    field("count", Value::UInt(u64::from(m.shard_count))),
                    field("index", Value::UInt(u64::from(m.shard_index))),
                    field("parent_nodes", Value::UInt(m.parent_node_count)),
                    field("parent_edges", Value::UInt(m.parent_edge_count)),
                    field("parent_median_degree", Value::Float(m.parent_median_degree)),
                    field("parent_crc32", Value::UInt(u64::from(m.parent_crc32))),
                ]),
            ));
        }
        fields.push(field("wal", Value::Bool(wal_path_for(path.as_ref()).exists())));
        fields.push(field(
            "sections",
            Value::Seq(
                sections
                    .iter()
                    .map(|s| {
                        Value::Map(vec![
                            field("name", Value::Str(s.name.to_string())),
                            field("bytes", Value::UInt(s.bytes)),
                            field("crc32", Value::UInt(s.checksum as u64)),
                        ])
                    })
                    .collect(),
            ),
        ));
        return Ok(format!("{}\n", Value::Map(fields)));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{path}: {} snapshot, {} bytes",
        format.name().to_uppercase(),
        mapped.bytes().len()
    );
    let _ = writeln!(
        out,
        "version {}   {}   flags {:#06x}",
        circlekit::store::VERSION,
        if header.directed() { "directed" } else { "undirected" },
        header.flags
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "{:<16} {:>12} {:>12}", "section", "bytes", "crc32");
    for s in &sections {
        let _ = writeln!(out, "{:<16} {:>12} {:>#12x}", s.name, s.bytes, s.checksum);
    }
    let _ = writeln!(out);
    let n = stats.nodes;
    let _ = writeln!(out, "vertices          {n}");
    let _ = writeln!(
        out,
        "{:<17} {}",
        if header.directed() { "edges (arcs)" } else { "edges" },
        stats.edges
    );
    let _ = writeln!(
        out,
        "avg out-degree    {:.3}",
        if n == 0 { 0.0 } else { stats.arcs as f64 / n as f64 }
    );
    let _ = writeln!(out, "groups            {}", stats.groups);
    if let Some(memberships) = stats.memberships {
        if stats.groups > 0 {
            let _ = writeln!(
                out,
                "memberships       {} (mean group size {:.2})",
                memberships,
                memberships as f64 / stats.groups as f64
            );
        }
    }
    if let Some(wide) = stats.wide {
        let _ = writeln!(out, "offset width      {}", if wide { "u64" } else { "u32" });
    }
    if let Some(compressed) = stats.compressed_adjacency_bytes {
        let _ = writeln!(
            out,
            "adjacency bytes   {} ({:.3} bytes/arc)",
            compressed,
            if stats.arcs == 0 { 0.0 } else { compressed as f64 / stats.arcs as f64 }
        );
    }
    if let Some(m) = shard {
        let _ = writeln!(out, "shard             {} of {}", m.shard_index, m.shard_count);
        let _ = writeln!(
            out,
            "parent            {} nodes, {} edges, median degree {}, crc32 {:#010x}",
            m.parent_node_count, m.parent_edge_count, m.parent_median_degree, m.parent_crc32
        );
    }
    Ok(out)
}

/// Reads a mutation script: one mutation per line in the text form of
/// [`Mutation::parse_line`]; `#` comments and blank lines are skipped.
fn read_mutation_script(path: &str) -> Result<Vec<Mutation>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut mutations = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if let Some(m) =
            Mutation::parse_line(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?
        {
            mutations.push(m);
        }
    }
    if mutations.is_empty() {
        return Err(format!("{path}: no mutations in script"));
    }
    Ok(mutations)
}

/// `live` — offline mutation of a CKS1 snapshot through its CKW1 WAL:
/// `apply` commits a script durably, `scores` renders the paper's four
/// scores from the incrementally maintained aggregates (byte-identical
/// to `score` on the compacted snapshot), `compact` folds the WAL back
/// into the snapshot file.
fn live_cmd(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args, &[])?;
    let op = *flags
        .positional
        .first()
        .ok_or("live needs an op (apply|scores|compact)")?;
    let path = flags.required("snapshot")?;
    match op {
        "apply" => {
            let mutations = read_mutation_script(flags.required("script")?)?;
            let mut live = LiveSnapshot::open(path).map_err(|e| format!("{path}: {e}"))?;
            let replayed = live.replayed_records();
            let outcome = live.apply(&mutations).map_err(|e| format!("{path}: {e}"))?;
            if let Some((index, error)) = outcome.rejected {
                // The applied prefix is already durable in the WAL;
                // report it so a re-run can resume past it.
                return Err(format!(
                    "applied {} of {} mutations, then rejected {:?}: {error}",
                    outcome.applied,
                    mutations.len(),
                    mutations[index].to_line(),
                ));
            }
            Ok(format!(
                "applied {} mutations ({} replayed on open); WAL now holds {} records\n",
                outcome.applied,
                replayed,
                live.wal_records(),
            ))
        }
        "scores" => {
            let live = LiveSnapshot::open(path).map_err(|e| format!("{path}: {e}"))?;
            let sizes: Vec<usize> = live.groups().iter().map(VertexSet::len).collect();
            let rows: Vec<Vec<f64>> = (0..live.groups().len())
                .map(|g| {
                    let scores = live.paper_scores(g).expect("group index in range");
                    scores.iter().map(|&(_, s)| s).collect()
                })
                .collect();
            Ok(render_score_table(&ScoringFunction::PAPER, &sizes, &rows))
        }
        "compact" => {
            let crash_point = flags
                .get("crash-point")
                .map(|name| {
                    CrashPoint::from_name(name)
                        .ok_or_else(|| format!("bad --crash-point {name:?} (tmp-written|renamed)"))
                })
                .transpose()?;
            let mut live = LiveSnapshot::open(path).map_err(|e| format!("{path}: {e}"))?;
            let folded = live.wal_records();
            live.compact_with_crash_point(crash_point)
                .map_err(|e| format!("{path}: {e}"))?;
            Ok(format!("folded {folded} WAL records into {path}\n"))
        }
        other => Err(format!("unknown live op {other:?} (apply|scores|compact)")),
    }
}

/// Starts the scoring daemon and blocks until it drains (SIGINT,
/// SIGTERM, or a `shutdown` request). With `--replica-of ADDR` the
/// daemon serves reads only and tails the primary's WAL. With
/// `--coordinator --shards a,b,c` it serves no local snapshots at all:
/// it scatter-gathers partial statistics from the listed shard daemons
/// and answers scoring ops with the exact global reduction. The
/// listening address is printed to stdout immediately so scripts can
/// connect; the returned string summarises the run after shutdown.
fn serve(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args, &["debug-ops", "coordinator"])?;
    let snapshots = flags.all("snapshot");
    let coordinator = if flags.has("coordinator") {
        if !snapshots.is_empty() {
            return Err(
                "a coordinator serves no local snapshots; drop --snapshot".to_string()
            );
        }
        let entries: Vec<String> = flags
            .required("shards")?
            .split(',')
            .map(|s| s.trim().to_string())
            .collect();
        if entries.iter().any(String::is_empty) {
            return Err("--shards has a blank endpoint entry".to_string());
        }
        // `--shard-count` declares the intended topology size so a
        // truncated endpoint list is refused before connecting at all.
        if let Some(value) = flags.get("shard-count") {
            let want = parse_shard_count(value)?;
            if want != entries.len() {
                return Err(format!(
                    "--shard-count {want} but --shards lists {} endpoints",
                    entries.len()
                ));
            }
        }
        let mut config = CoordinatorConfig::new(entries);
        config.shard_deadline_ms =
            flags.parse_value("shard-deadline-ms", config.shard_deadline_ms)?;
        Some(config)
    } else {
        if snapshots.is_empty() {
            return Err("serve needs at least one --snapshot FILE.cks".to_string());
        }
        if flags.get("shards").is_some() || flags.get("shard-count").is_some() {
            return Err("--shards needs --coordinator".to_string());
        }
        None
    };
    let mut registry = SnapshotRegistry::new();
    for path in snapshots {
        registry.load(path, None)?;
    }
    let repl_crash_point = flags
        .get("repl-crash-point")
        .map(|name| {
            circlekit_serve::ReplCrashPoint::from_name(name).ok_or_else(|| {
                format!(
                    "bad --repl-crash-point {name:?} \
                     (frame-send|frame-receive|pre-ack|post-ack)"
                )
            })
        })
        .transpose()?;
    let config = ServeConfig {
        threads: threads_flag(&flags)?,
        workers: flags.parse_value("workers", 1)?,
        queue_capacity: flags.parse_value("queue", 1024)?,
        batch_max: flags.parse_value("batch", 64)?,
        cache_capacity: flags.parse_value("cache", 4096)?,
        debug_ops: flags.has("debug-ops"),
        watch_signals: true,
        replica_of: flags.get("replica-of").map(str::to_string),
        repl_crash_point,
        fault: circlekit_serve::FaultPlan::default(),
        coordinator,
    };
    circlekit_serve::signal::install_termination_handlers();
    let listen = flags.get("listen").unwrap_or("127.0.0.1:7450");
    let server =
        Server::start(registry, config, listen).map_err(|e| format!("binding {listen}: {e}"))?;
    println!("circlekit-serve listening on {}", server.local_addr());
    let _ = std::io::Write::flush(&mut std::io::stdout());
    let stats = server.join();
    Ok(format!(
        "served {} requests ({} ok, {} errors; {} batches, cache {} hits / {} misses)\n",
        stats.requests,
        stats.ok_responses,
        stats.error_responses,
        stats.batches,
        stats.cache.hits,
        stats.cache.misses,
    ))
}

/// One-shot client for a running `serve` daemon.
fn query(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args, &["all", "binary"])?;
    let op = *flags.positional.first().ok_or("query needs an op")?;
    let addr = flags.required("addr")?;
    let mut client = Client::connect_with_patience(addr, std::time::Duration::from_secs(5))
        .map_err(|e| format!("connecting to {addr}: {e}"))?;
    client.set_binary(flags.has("binary"));
    if let Some(ms) = flags
        .get("timeout-ms")
        .map(|v| v.parse::<u64>().map_err(|_| format!("bad --timeout-ms {v:?}")))
        .transpose()?
    {
        client
            .set_timeout(Some(std::time::Duration::from_millis(ms)))
            .map_err(|e| e.to_string())?;
    }
    let functions = flags.has("all").then_some("all");
    let response = match op {
        "health" => client.health(),
        "stats" => client.stats(),
        "shutdown" => client.shutdown(),
        "repl-status" => client.repl_status(),
        "list-snapshots" => client.list_snapshots(),
        "list-groups" => client.list_groups(flags.required("snapshot")?),
        "score-group" => {
            let group: usize = flags
                .required("group")?
                .parse()
                .map_err(|_| "bad --group value".to_string())?;
            let deadline = flags
                .get("deadline-ms")
                .map(|v| v.parse::<u64>().map_err(|_| format!("bad --deadline-ms {v:?}")))
                .transpose()?;
            client.score_group(flags.required("snapshot")?, group, functions, deadline)
        }
        "score-set" => {
            let members: Vec<u32> = flags
                .required("members")?
                .split(',')
                .map(|m| m.trim().parse().map_err(|_| format!("bad member {m:?}")))
                .collect::<Result<_, String>>()?;
            client.score_set(flags.required("snapshot")?, &members, functions, None)
        }
        "baseline" => client.baseline(
            flags.required("snapshot")?,
            flags.parse_value("group", 0)?,
            flags.parse_value("samples", circlekit_serve::DEFAULT_BASELINE_SAMPLES)?,
            flags.parse_value("seed", 2014)?,
        ),
        "apply-mutations" => {
            let mutations = read_mutation_script(flags.required("script")?)?;
            client.apply_mutations(flags.required("snapshot")?, &mutations)
        }
        "watch-scores" => {
            let group: usize = flags
                .required("group")?
                .parse()
                .map_err(|_| "bad --group value".to_string())?;
            client.watch_scores(flags.required("snapshot")?, group)
        }
        "compact" => client.compact(flags.required("snapshot")?),
        "score-table" => return query_score_table(&mut client, &flags, functions),
        "suggest-circles" => return query_suggest_circles(&mut client, &flags),
        other => return Err(format!("unknown query op {other:?}")),
    };
    let response = response.map_err(|e| e.to_string())?;
    Ok(format!("{response}\n"))
}

/// Scores every group of a snapshot over the wire and renders the result
/// with the same [`render_score_table`] the offline `score` command uses
/// — scores cross the wire losslessly, so the output is byte-identical.
fn query_score_table(
    client: &mut Client,
    flags: &Flags<'_>,
    functions: Option<&str>,
) -> Result<String, String> {
    let snapshot = flags.required("snapshot")?;
    let listing = client.list_groups(snapshot).map_err(|e| e.to_string())?;
    let group_count = match circlekit_serve::protocol::wire::get(&listing, "groups") {
        Some(serde_json::Value::UInt(n)) => *n as usize,
        _ => return Err("list_groups response lacks a group count".to_string()),
    };
    let function_list: &[ScoringFunction] = if functions.is_some() {
        &ScoringFunction::ALL
    } else {
        &ScoringFunction::PAPER
    };
    let mut sizes = Vec::with_capacity(group_count);
    let mut rows = Vec::with_capacity(group_count);
    for g in 0..group_count {
        let response = client
            .score_group(snapshot, g, functions, None)
            .map_err(|e| e.to_string())?;
        let size = circlekit_serve::protocol::wire::get_u64(&response, "size")
            .map_err(|(_, m)| m)? as usize;
        sizes.push(size);
        rows.push(Client::scores_of(&response).map_err(|e| e.to_string())?);
    }
    Ok(render_score_table(function_list, &sizes, &rows))
}

/// Requests a suggestion over the wire and renders it with the same
/// [`render_suggestion`] the offline `discover` command uses — members
/// and scores cross the wire losslessly, so for the same snapshot and
/// seed the output is byte-identical to `circlekit discover`.
fn query_suggest_circles(client: &mut Client, flags: &Flags<'_>) -> Result<String, String> {
    use circlekit_serve::protocol::wire;
    let snapshot = flags.required("snapshot")?;
    let ego: u32 = flags
        .required("ego")?
        .parse()
        .map_err(|_| "bad --ego value".to_string())?;
    let config = discover_flags(flags)?;
    let response = client
        .suggest_circles(snapshot, ego, config.seed, config.min_size, config.top)
        .map_err(|e| e.to_string())?;
    let alters = wire::get_u64(&response, "alters").map_err(|(_, m)| m)? as usize;
    let score_of = |item: &serde_json::Value, key: &str| -> f64 {
        wire::get(item, key).and_then(wire::as_f64).unwrap_or(f64::NAN)
    };
    let Some(serde_json::Value::Seq(items)) = wire::get(&response, "candidates") else {
        return Err("suggest_circles response lacks candidates".to_string());
    };
    let candidates = items
        .iter()
        .map(|item| {
            let Some(serde_json::Value::Seq(ms)) = wire::get(item, "members") else {
                return Err("candidate lacks members".to_string());
            };
            let members: Vec<u32> = ms
                .iter()
                .map(|m| match m {
                    serde_json::Value::UInt(u) => Ok(*u as u32),
                    other => Err(format!("bad member {other:?}")),
                })
                .collect::<Result<_, String>>()?;
            Ok(Candidate {
                members: VertexSet::from_vec(members),
                conductance: score_of(item, "conductance"),
                average_degree: score_of(item, "average_degree"),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let suggestion = Suggestion { ego, seed: config.seed, alters, candidates };
    Ok(render_suggestion(&suggestion))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("circlekit-cli-tests");
        fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join(name);
        // The directory persists across runs; a stale file from a
        // previous run would trip pack's overwrite protection.
        let _ = fs::remove_file(&path);
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn dispatch_rejects_unknown_and_empty() {
        assert!(dispatch(&[]).is_err());
        assert!(dispatch(&args(&["frobnicate"])).is_err());
        assert!(dispatch(&args(&["help"])).unwrap().contains("usage"));
    }

    #[test]
    fn generate_then_score_roundtrip() {
        let edges = tmp("gp.edges");
        let groups = tmp("gp.circles");
        let out = dispatch(&args(&[
            "generate", "google+", "--scale", "0.003", "--seed", "7",
            "--edges", &edges, "--groups", &groups,
        ]))
        .expect("generate succeeds");
        assert!(out.contains("wrote edges"));
        assert!(out.contains("groups"));

        let out = dispatch(&args(&["score", "--edges", &edges, "--groups", &groups]))
            .expect("score succeeds");
        assert!(out.contains("average-degree"));
        assert!(out.contains("conductance"));
        // One row per group plus headers/summaries.
        assert!(out.lines().count() > 5);
    }

    #[test]
    fn score_threads_flag_changes_nothing_but_accepts_values() {
        let edges = tmp("thr.edges");
        let groups = tmp("thr.circles");
        dispatch(&args(&[
            "generate", "google+", "--scale", "0.003", "--seed", "7",
            "--edges", &edges, "--groups", &groups,
        ]))
        .expect("generate succeeds");
        let base = dispatch(&args(&["score", "--edges", &edges, "--groups", &groups]))
            .expect("score succeeds");
        for t in ["1", "2", "7"] {
            let out = dispatch(&args(&[
                "score", "--edges", &edges, "--groups", &groups, "--threads", t,
            ]))
            .expect("score succeeds");
            assert_eq!(base, out, "--threads {t}");
        }
        let err = dispatch(&args(&[
            "score", "--edges", &edges, "--groups", &groups, "--threads", "0",
        ]))
        .unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn score_all_uses_thirteen_functions() {
        let edges = tmp("tw.edges");
        let groups = tmp("tw.circles");
        dispatch(&args(&[
            "generate", "twitter", "--scale", "0.005", "--seed", "8",
            "--edges", &edges, "--groups", &groups,
        ]))
        .expect("generate succeeds");
        let out = dispatch(&args(&[
            "score", "--edges", &edges, "--groups", &groups, "--all",
        ]))
        .expect("score succeeds");
        assert!(out.contains("flake-odf"));
        assert!(out.contains("tpr"));
    }

    #[test]
    fn characterize_file() {
        let edges = tmp("ch.edges");
        fs::write(&edges, "0 1\n1 2\n2 0\n2 3\n").unwrap();
        let out = dispatch(&args(&["characterize", "--edges", &edges, "--undirected"]))
            .expect("characterize succeeds");
        assert!(out.contains("diameter"));
        assert!(out.contains('4')); // 4 vertices
    }

    #[test]
    fn fit_degrees_runs_on_generated_graph() {
        let edges = tmp("fit.edges");
        dispatch(&args(&[
            "generate", "google+", "--scale", "0.003", "--seed", "9", "--edges", &edges,
        ]))
        .expect("generate succeeds");
        let out = dispatch(&args(&["fit-degrees", "--edges", &edges, "--kind", "in"]))
            .expect("fit succeeds");
        assert!(out.contains("best family"));
        assert!(out.contains("alpha="));
    }

    #[test]
    fn detect_finds_planted_cliques() {
        let edges = tmp("det.edges");
        // Owner 0 -> two 4-cliques of alters.
        let mut text = String::new();
        for v in 1..=8 {
            text.push_str(&format!("0 {v}\n"));
        }
        for base in [1, 5] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    text.push_str(&format!("{} {}\n", base + i, base + j));
                }
            }
        }
        fs::write(&edges, text).unwrap();
        let out = dispatch(&args(&["detect", "--edges", &edges, "--ego", "0"]))
            .expect("detect succeeds");
        assert!(out.contains("detected 2 circles"), "{out}");
    }

    #[test]
    fn score_rejects_out_of_range_groups() {
        let edges = tmp("oor.edges");
        let groups = tmp("oor.circles");
        fs::write(&edges, "0 1\n").unwrap();
        fs::write(&groups, "0 99\n").unwrap();
        let err = dispatch(&args(&["score", "--edges", &edges, "--groups", &groups]))
            .unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        // The default fail-fast policy names the offending line.
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn score_on_error_skip_drops_bad_lines() {
        let edges = tmp("skip.edges");
        let groups = tmp("skip.circles");
        fs::write(&edges, "0 1\n1 2\nmangled line here extra\n2 0\n").unwrap();
        fs::write(&groups, "c0\t0 1 99\nc1\t1 2\n").unwrap();
        // Fail-fast rejects the edge file outright...
        let err = dispatch(&args(&["score", "--edges", &edges, "--groups", &groups]))
            .unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        // ...lenient ingestion scores what survives.
        let out = dispatch(&args(&[
            "score", "--edges", &edges, "--groups", &groups, "--on-error", "skip",
        ]))
        .expect("lenient score succeeds");
        assert!(!out.contains("ingest:"), "skip mode stays quiet:\n{out}");
        assert!(out.contains("conductance"), "{out}");
    }

    #[test]
    fn score_on_error_report_prints_ingest_summaries() {
        let edges = tmp("rep.edges");
        let groups = tmp("rep.circles");
        fs::write(&edges, "0 1\n1 2\n0 1\nbogus\n").unwrap();
        fs::write(&groups, "c0\t0 1 99\n").unwrap();
        let out = dispatch(&args(&[
            "score", "--edges", &edges, "--groups", &groups, "--on-error", "report",
        ]))
        .expect("report score succeeds");
        assert!(out.contains("1 duplicate edges"), "{out}");
        assert!(out.contains("1 members dropped"), "{out}");
        assert!(out.contains("skipped line 4"), "{out}");
    }

    #[test]
    fn bad_on_error_value_is_rejected() {
        let edges = tmp("bad.edges");
        fs::write(&edges, "0 1\n").unwrap();
        let err = dispatch(&args(&[
            "characterize", "--edges", &edges, "--on-error", "explode",
        ]))
        .unwrap_err();
        assert!(err.contains("--on-error"), "{err}");
    }

    #[test]
    fn missing_flags_are_reported() {
        assert!(dispatch(&args(&["score", "--edges", "nope"])).is_err());
        assert!(dispatch(&args(&["generate", "google+"])).is_err());
        assert!(dispatch(&args(&["detect", "--edges", "nope"])).is_err());
        assert!(dispatch(&args(&["pack", "--edges", "nope"])).is_err());
        assert!(dispatch(&args(&["inspect"])).is_err());
    }

    #[test]
    fn pack_then_score_matches_text_ingestion_byte_for_byte() {
        let edges = tmp("pk.edges");
        let groups = tmp("pk.circles");
        let snap = tmp("pk.cks");
        dispatch(&args(&[
            "generate", "google+", "--scale", "0.003", "--seed", "11",
            "--edges", &edges, "--groups", &groups,
        ]))
        .expect("generate succeeds");
        let out = dispatch(&args(&[
            "pack", "--edges", &edges, "--groups", &groups, "--out", &snap,
        ]))
        .expect("pack succeeds");
        assert!(out.contains("packed"), "{out}");

        let from_text = dispatch(&args(&["score", "--edges", &edges, "--groups", &groups]))
            .expect("text score succeeds");
        // Embedded groups: a single .cks input replaces both files.
        let from_snap = dispatch(&args(&["score", "--edges", &snap]))
            .expect("snapshot score succeeds");
        assert_eq!(from_text, from_snap);
        // Explicit --groups still works alongside a snapshot graph.
        let mixed = dispatch(&args(&["score", "--edges", &snap, "--groups", &groups]))
            .expect("mixed score succeeds");
        assert_eq!(from_text, mixed);
    }

    #[test]
    fn pack_without_groups_and_score_requires_groups() {
        let edges = tmp("pg.edges");
        let snap = tmp("pg.cks");
        fs::write(&edges, "0 1\n1 2\n2 0\n").unwrap();
        dispatch(&args(&["pack", "--edges", &edges, "--out", &snap])).expect("pack succeeds");
        let err = dispatch(&args(&["score", "--edges", &snap])).unwrap_err();
        assert!(err.contains("--groups"), "{err}");
    }

    #[test]
    fn inspect_reports_sections_and_stats() {
        let edges = tmp("in.edges");
        let groups = tmp("in.circles");
        let snap = tmp("in.cks");
        fs::write(&edges, "0 1\n1 2\n2 0\n").unwrap();
        fs::write(&groups, "c0\t0 1\nc1\t1 2\n").unwrap();
        dispatch(&args(&[
            "pack", "--edges", &edges, "--groups", &groups, "--out", &snap,
        ]))
        .expect("pack succeeds");
        let out = dispatch(&args(&["inspect", "--snapshot", &snap])).expect("inspect succeeds");
        assert!(out.contains("CKS1 snapshot"), "{out}");
        assert!(out.contains("out-offsets"), "{out}");
        assert!(out.contains("group-members"), "{out}");
        assert!(out.contains("vertices          3"), "{out}");
        assert!(out.contains("groups            2"), "{out}");
    }

    #[test]
    fn inspect_json_reports_header_sections_and_crcs() {
        let edges = tmp("ij.edges");
        let groups = tmp("ij.circles");
        let snap = tmp("ij.cks");
        fs::write(&edges, "0 1\n1 2\n2 0\n").unwrap();
        fs::write(&groups, "c0\t0 1\nc1\t1 2\n").unwrap();
        dispatch(&args(&[
            "pack", "--edges", &edges, "--groups", &groups, "--out", &snap,
        ]))
        .expect("pack succeeds");
        let out = dispatch(&args(&["inspect", "--snapshot", &snap, "--json"]))
            .expect("inspect --json succeeds");
        let value: serde_json::Value = serde_json::from_str(out.trim()).expect("valid JSON");
        let get = |k| circlekit_serve::protocol::wire::get(&value, k);
        assert_eq!(get("format"), Some(&serde_json::Value::Str("CKS1".to_string())));
        assert_eq!(get("version"), Some(&serde_json::Value::UInt(1)));
        assert_eq!(get("directed"), Some(&serde_json::Value::Bool(true)));
        assert_eq!(get("nodes"), Some(&serde_json::Value::UInt(3)));
        assert_eq!(get("groups"), Some(&serde_json::Value::UInt(2)));
        assert_eq!(get("wal"), Some(&serde_json::Value::Bool(false)));
        let Some(serde_json::Value::Seq(sections)) = get("sections") else {
            panic!("sections missing: {out}");
        };
        assert!(!sections.is_empty(), "{out}");
        for section in sections {
            for key in ["name", "bytes", "crc32"] {
                assert!(
                    circlekit_serve::protocol::wire::get(section, key).is_some(),
                    "section lacks {key}: {out}"
                );
            }
        }
    }

    #[test]
    fn live_apply_scores_compact_roundtrip_matches_offline_score() {
        let edges = tmp("lv.edges");
        let groups = tmp("lv.circles");
        let snap = tmp("lv.cks");
        let script = tmp("lv.script");
        let _ = fs::remove_file(format!("{snap}.ckw"));
        fs::write(&edges, "0 1\n1 2\n2 0\n").unwrap();
        fs::write(&groups, "c0\t0 1 2\nc1\t0 1\n").unwrap();
        dispatch(&args(&[
            "pack", "--edges", &edges, "--groups", &groups, "--out", &snap,
        ]))
        .expect("pack succeeds");
        fs::write(&script, "# grow the graph\nadd-vertex\n\nadd-edge 3 0\nadd-member 1 3\n")
            .unwrap();

        let out = dispatch(&args(&["live", "apply", "--snapshot", &snap, "--script", &script]))
            .expect("apply succeeds");
        assert!(out.contains("applied 3 mutations"), "{out}");
        let live_table = dispatch(&args(&["live", "scores", "--snapshot", &snap]))
            .expect("live scores succeeds");
        let inspected = dispatch(&args(&["inspect", "--snapshot", &snap, "--json"]))
            .expect("inspect succeeds");
        assert!(inspected.contains("\"wal\":true"), "{inspected}");

        let out = dispatch(&args(&["live", "compact", "--snapshot", &snap]))
            .expect("compact succeeds");
        assert!(out.contains("folded 3 WAL records"), "{out}");
        let inspected = dispatch(&args(&["inspect", "--snapshot", &snap, "--json"]))
            .expect("inspect succeeds");
        assert!(inspected.contains("\"wal\":false"), "{inspected}");
        assert!(inspected.contains("\"nodes\":4"), "{inspected}");

        // The aggregate-backed table is byte-identical to the offline
        // scorer over the compacted snapshot — and stable across the
        // compaction itself.
        let offline = dispatch(&args(&["score", "--edges", &snap])).expect("score succeeds");
        assert_eq!(live_table, offline);
        let recompacted = dispatch(&args(&["live", "scores", "--snapshot", &snap]))
            .expect("live scores succeeds");
        assert_eq!(live_table, recompacted);
    }

    #[test]
    fn live_apply_reports_rejections_after_the_durable_prefix() {
        let edges = tmp("lr.edges");
        let snap = tmp("lr.cks");
        let script = tmp("lr.script");
        let _ = fs::remove_file(format!("{snap}.ckw"));
        fs::write(&edges, "0 1\n1 2\n").unwrap();
        dispatch(&args(&["pack", "--edges", &edges, "--out", &snap])).expect("pack succeeds");
        fs::write(&script, "add-vertex\nadd-edge 0 1\n").unwrap();
        let err = dispatch(&args(&["live", "apply", "--snapshot", &snap, "--script", &script]))
            .unwrap_err();
        assert!(err.contains("applied 1 of 2"), "{err}");
        assert!(err.contains("already exists"), "{err}");
        // Malformed scripts and bad crash points are named precisely.
        fs::write(&script, "add-edge 1\n").unwrap();
        let err = dispatch(&args(&["live", "apply", "--snapshot", &snap, "--script", &script]))
            .unwrap_err();
        assert!(err.contains(":1:"), "{err}");
        let err = dispatch(&args(&[
            "live", "compact", "--snapshot", &snap, "--crash-point", "never",
        ]))
        .unwrap_err();
        assert!(err.contains("--crash-point"), "{err}");
    }

    #[test]
    fn query_live_mutation_ops_roundtrip() {
        let edges = tmp("qm.edges");
        let groups = tmp("qm.circles");
        let snap = tmp("qm.cks");
        let script = tmp("qm.script");
        let _ = fs::remove_file(format!("{snap}.ckw"));
        fs::write(&edges, "0 1\n1 2\n2 0\n").unwrap();
        fs::write(&groups, "c0\t0 1 2\n").unwrap();
        dispatch(&args(&[
            "pack", "--edges", &edges, "--groups", &groups, "--out", &snap,
        ]))
        .expect("pack succeeds");
        fs::write(&script, "add-vertex\nadd-edge 3 0\n").unwrap();

        let port = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let server = {
            let snap = snap.clone();
            let addr = addr.clone();
            std::thread::spawn(move || {
                dispatch(&args(&["serve", "--snapshot", &snap, "--listen", &addr]))
            })
        };

        let applied = dispatch(&args(&[
            "query", "--addr", &addr, "apply-mutations", "--snapshot", "qm",
            "--script", &script,
        ]))
        .expect("apply-mutations succeeds");
        assert!(applied.contains("\"applied\":2"), "{applied}");
        let watched = dispatch(&args(&[
            "query", "--addr", &addr, "watch-scores", "--snapshot", "qm", "--group", "0",
        ]))
        .expect("watch-scores succeeds");
        assert!(watched.contains("\"scores\":["), "{watched}");
        assert!(watched.contains("\"version\":1"), "{watched}");
        let compacted = dispatch(&args(&[
            "query", "--addr", &addr, "compact", "--snapshot", "qm",
        ]))
        .expect("compact succeeds");
        assert!(compacted.contains("\"folded_records\":2"), "{compacted}");
        assert!(!std::path::Path::new(&format!("{snap}.ckw")).exists());

        dispatch(&args(&["query", "--addr", &addr, "shutdown"])).expect("shutdown succeeds");
        server.join().unwrap().expect("serve exits cleanly");
    }

    #[test]
    fn pack_refuses_to_overwrite_without_force() {
        let edges = tmp("fo.edges");
        let snap = tmp("fo.cks");
        fs::write(&edges, "0 1\n1 2\n2 0\n").unwrap();
        dispatch(&args(&["pack", "--edges", &edges, "--out", &snap])).expect("pack succeeds");
        let before = fs::read(&snap).unwrap();
        let err = dispatch(&args(&["pack", "--edges", &edges, "--out", &snap])).unwrap_err();
        assert!(err.contains("--force"), "{err}");
        assert_eq!(fs::read(&snap).unwrap(), before, "refused pack must not touch the file");
        // --force replaces the snapshot; any plain file is protected too.
        dispatch(&args(&["pack", "--edges", &edges, "--out", &snap, "--force"]))
            .expect("forced pack succeeds");
        let plain = tmp("fo.txt");
        fs::write(&plain, "precious").unwrap();
        let err = dispatch(&args(&["pack", "--edges", &edges, "--out", &plain])).unwrap_err();
        assert!(err.contains("already exists"), "{err}");
        assert_eq!(fs::read_to_string(&plain).unwrap(), "precious");
    }

    /// The equivalence oracle: the full 13-function score table printed
    /// from a degree-relabelled CKS2 snapshot is byte-identical to the
    /// CKS1 and text-ingest paths — end-to-end through the CLI.
    #[test]
    fn cks2_score_stdout_is_bit_identical_to_cks1_and_text() {
        let edges = tmp("eq.edges");
        let groups = tmp("eq.circles");
        let snap1 = tmp("eq.cks1");
        let snap2 = tmp("eq.cks2");
        dispatch(&args(&[
            "generate", "google+", "--scale", "0.003", "--seed", "13",
            "--edges", &edges, "--groups", &groups,
        ]))
        .expect("generate succeeds");
        dispatch(&args(&[
            "pack", "--edges", &edges, "--groups", &groups, "--out", &snap1,
        ]))
        .expect("cks1 pack succeeds");
        let out = dispatch(&args(&[
            "pack", "--edges", &edges, "--groups", &groups, "--out", &snap2,
            "--format", "cks2",
        ]))
        .expect("cks2 pack succeeds");
        assert!(out.contains("cks2"), "{out}");

        let from_text = dispatch(&args(&["score", "--edges", &edges, "--groups", &groups, "--all"]))
            .expect("text score succeeds");
        let from_cks1 = dispatch(&args(&["score", "--edges", &snap1, "--all"]))
            .expect("cks1 score succeeds");
        let from_cks2 = dispatch(&args(&["score", "--edges", &snap2, "--all"]))
            .expect("cks2 score succeeds");
        assert_eq!(from_text, from_cks1);
        assert_eq!(from_text, from_cks2);
        // And the compressed file actually is compressed.
        let s1 = fs::metadata(&snap1).unwrap().len();
        let s2 = fs::metadata(&snap2).unwrap().len();
        assert!(s2 < s1, "cks2 ({s2}) should be smaller than cks1 ({s1})");
    }

    #[test]
    fn cks2_streamed_pack_emits_byte_identical_file_via_cli() {
        let edges = tmp("st.edges");
        let groups = tmp("st.circles");
        let in_memory = tmp("st-mem.cks2");
        let streamed = tmp("st-stream.cks2");
        dispatch(&args(&[
            "generate", "google+", "--scale", "0.005", "--seed", "17",
            "--edges", &edges, "--groups", &groups,
        ]))
        .expect("generate succeeds");
        dispatch(&args(&[
            "pack", "--edges", &edges, "--groups", &groups, "--out", &in_memory,
            "--format", "cks2",
        ]))
        .expect("in-memory pack succeeds");
        // A 1 MiB budget on a graph this size forces external-sort runs.
        let out = dispatch(&args(&[
            "pack", "--edges", &edges, "--groups", &groups, "--out", &streamed,
            "--format", "cks2", "--stream", "--memory-budget-mb", "1",
        ]))
        .expect("streamed pack succeeds");
        assert!(out.contains("streamed"), "{out}");
        assert_eq!(
            fs::read(&in_memory).unwrap(),
            fs::read(&streamed).unwrap(),
            "streamed and in-memory CKS2 packs must be byte-identical"
        );
    }

    #[test]
    fn pack_force_semantics_carry_to_cks2() {
        let edges = tmp("f2.edges");
        let snap = tmp("f2.cks2");
        fs::write(&edges, "0 1\n1 2\n2 0\n").unwrap();
        dispatch(&args(&["pack", "--edges", &edges, "--out", &snap, "--format", "cks2"]))
            .expect("pack succeeds");
        let before = fs::read(&snap).unwrap();
        for extra in [&["--format", "cks2"][..], &["--format", "cks2", "--stream"][..]] {
            let mut cmd = args(&["pack", "--edges", &edges, "--out", &snap]);
            cmd.extend(extra.iter().map(|s| s.to_string()));
            let err = dispatch(&cmd).unwrap_err();
            assert!(err.contains("--force"), "{err}");
            assert_eq!(fs::read(&snap).unwrap(), before, "refused pack must not touch the file");
        }
        dispatch(&args(&[
            "pack", "--edges", &edges, "--out", &snap, "--format", "cks2", "--force",
        ]))
        .expect("forced cks2 pack succeeds");
        dispatch(&args(&[
            "pack", "--edges", &edges, "--out", &snap, "--format", "cks2", "--stream", "--force",
        ]))
        .expect("forced streamed pack succeeds");
        assert_eq!(fs::read(&snap).unwrap(), before, "same input repacks identically");
    }

    #[test]
    fn pack_rejects_stream_without_cks2_and_snapshot_inputs() {
        let edges = tmp("sv.edges");
        let snap = tmp("sv.cks2");
        fs::write(&edges, "0 1\n1 2\n").unwrap();
        let err = dispatch(&args(&["pack", "--edges", &edges, "--out", &snap, "--stream"]))
            .unwrap_err();
        assert!(err.contains("--format cks2"), "{err}");
        dispatch(&args(&["pack", "--edges", &edges, "--out", &snap, "--format", "cks2"]))
            .expect("pack succeeds");
        // A snapshot (of either format) is refused as --edges input to pack.
        let err = dispatch(&args(&[
            "pack", "--edges", &snap, "--out", &tmp("sv2.cks"),
        ]))
        .unwrap_err();
        assert!(err.contains("already a cks2 snapshot"), "{err}");
    }

    #[test]
    fn inspect_reports_cks2_sections_and_stats() {
        let edges = tmp("i2.edges");
        let groups = tmp("i2.circles");
        let snap = tmp("i2.cks2");
        fs::write(&edges, "0 1\n1 2\n2 0\n0 2\n3 1\n").unwrap();
        fs::write(&groups, "c0\t0 1 2\nc1\t1 3\n").unwrap();
        dispatch(&args(&[
            "pack", "--edges", &edges, "--groups", &groups, "--out", &snap,
            "--format", "cks2",
        ]))
        .expect("pack succeeds");

        let out = dispatch(&args(&["inspect", "--snapshot", &snap])).expect("inspect succeeds");
        assert!(out.contains("CKS2 snapshot"), "{out}");
        for section in ["permutation", "out-adjacency", "out-offsets", "group-members"] {
            assert!(out.contains(section), "missing {section}:\n{out}");
        }
        assert!(out.contains("offset width      u32"), "{out}");
        assert!(out.contains("adjacency bytes"), "{out}");

        let json = dispatch(&args(&["inspect", "--snapshot", &snap, "--json"]))
            .expect("inspect --json succeeds");
        assert!(json.contains("\"format\":\"CKS2\""), "{json}");
        assert!(json.contains("\"wide\":false"), "{json}");
        assert!(json.contains("\"compressed_adjacency_bytes\":"), "{json}");
        assert!(json.contains("\"nodes\":4"), "{json}");
        assert!(json.contains("\"groups\":2"), "{json}");
    }

    #[test]
    fn thread_validation_is_uniform_across_commands() {
        let edges = tmp("tv.edges");
        let groups = tmp("tv.circles");
        let snap = tmp("tv.cks");
        fs::write(&edges, "0 1\n1 2\n2 0\n").unwrap();
        fs::write(&groups, "c0\t0 1 2\n").unwrap();
        dispatch(&args(&["pack", "--edges", &edges, "--groups", &groups, "--out", &snap]))
            .expect("pack succeeds");
        // Both thread-taking commands reject 0 and garbage with the
        // shared parser's messages.
        let score_zero = dispatch(&args(&[
            "score", "--edges", &edges, "--groups", &groups, "--threads", "0",
        ]))
        .unwrap_err();
        let serve_zero =
            dispatch(&args(&["serve", "--snapshot", &snap, "--threads", "0"])).unwrap_err();
        assert!(score_zero.contains("at least 1"), "{score_zero}");
        assert_eq!(score_zero, serve_zero);
        let score_garbage = dispatch(&args(&[
            "score", "--edges", &edges, "--groups", &groups, "--threads", "many",
        ]))
        .unwrap_err();
        let serve_garbage =
            dispatch(&args(&["serve", "--snapshot", &snap, "--threads", "many"])).unwrap_err();
        assert!(score_garbage.contains("positive integer"), "{score_garbage}");
        assert_eq!(score_garbage, serve_garbage);
    }

    #[test]
    fn snapshot_rejects_conflicting_undirected_flag_and_double_pack() {
        let edges = tmp("cf.edges");
        let snap = tmp("cf.cks");
        fs::write(&edges, "0 1\n1 2\n").unwrap();
        dispatch(&args(&["pack", "--edges", &edges, "--out", &snap])).expect("pack succeeds");
        let err = dispatch(&args(&["characterize", "--edges", &snap, "--undirected"]))
            .unwrap_err();
        assert!(err.contains("directed"), "{err}");
        let err = dispatch(&args(&["pack", "--edges", &snap, "--out", &snap])).unwrap_err();
        assert!(err.contains("already"), "{err}");
    }

    #[test]
    fn undirected_snapshot_roundtrips_through_characterize() {
        let edges = tmp("ud.edges");
        let snap = tmp("ud.cks");
        fs::write(&edges, "0 1\n1 2\n2 0\n2 3\n").unwrap();
        dispatch(&args(&[
            "pack", "--edges", &edges, "--undirected", "--out", &snap,
        ]))
        .expect("pack succeeds");
        // The snapshot carries its directedness; no --undirected needed.
        let from_text = dispatch(&args(&["characterize", "--edges", &edges, "--undirected"]))
            .expect("text characterize succeeds")
            .replace(&edges, "DATA");
        let from_snap = dispatch(&args(&["characterize", "--edges", &snap]))
            .expect("snapshot characterize succeeds")
            .replace(&snap, "DATA");
        assert_eq!(from_text, from_snap);
    }

    #[test]
    fn served_score_table_is_byte_identical_to_offline_score() {
        let edges = tmp("qs.edges");
        let groups = tmp("qs.circles");
        let snap = tmp("qs.cks");
        dispatch(&args(&[
            "generate", "google+", "--scale", "0.003", "--seed", "21",
            "--edges", &edges, "--groups", &groups,
        ]))
        .expect("generate succeeds");
        dispatch(&args(&[
            "pack", "--edges", &edges, "--groups", &groups, "--out", &snap,
        ]))
        .expect("pack succeeds");
        let offline = dispatch(&args(&["score", "--edges", &snap, "--all"]))
            .expect("offline score succeeds");

        // Reserve an ephemeral port, then serve on it from a thread.
        let port = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let server = {
            let snap = snap.clone();
            let addr = addr.clone();
            std::thread::spawn(move || {
                dispatch(&args(&["serve", "--snapshot", &snap, "--listen", &addr]))
            })
        };

        let served = dispatch(&args(&[
            "query", "--addr", &addr, "score-table", "--snapshot", "qs", "--all",
        ]))
        .expect("query succeeds");
        assert_eq!(offline, served, "served table must match the offline command byte-for-byte");

        let health = dispatch(&args(&["query", "--addr", &addr, "health"]))
            .expect("health succeeds");
        assert!(health.contains("\"serving\""), "{health}");
        let listing = dispatch(&args(&["query", "--addr", &addr, "list-snapshots"]))
            .expect("listing succeeds");
        assert!(listing.contains("\"qs\""), "{listing}");

        dispatch(&args(&["query", "--addr", &addr, "shutdown"])).expect("shutdown succeeds");
        let summary = server.join().unwrap().expect("serve exits cleanly");
        assert!(summary.contains("served"), "{summary}");
    }

    #[test]
    fn pack_shards_emits_inspectable_sub_snapshots() {
        let edges = tmp("sh.edges");
        let groups = tmp("sh.circles");
        let snap = tmp("sh.cks");
        for i in 0..2u32 {
            let _ = fs::remove_file(tmp(&format!("sh.shard{i}.cks")));
        }
        dispatch(&args(&[
            "generate", "google+", "--scale", "0.003", "--seed", "11",
            "--edges", &edges, "--groups", &groups,
        ]))
        .expect("generate succeeds");
        let out = dispatch(&args(&[
            "pack", "--edges", &edges, "--groups", &groups, "--out", &snap, "--shards", "2",
        ]))
        .expect("pack --shards succeeds");
        assert!(out.contains("sharding"), "{out}");
        assert!(out.contains("shard 0/2"), "{out}");
        assert!(out.contains("shard 1/2"), "{out}");

        // The parent CRC in the manifest is the CRC of the parent's own
        // CKS1 image, so packing the parent reproduces it.
        dispatch(&args(&["pack", "--edges", &edges, "--groups", &groups, "--out", &snap]))
            .expect("parent pack succeeds");
        let parent_crc =
            circlekit::store::file_crc32(snap.as_ref()).expect("parent snapshot readable");

        let shard0 = snap.replace(".cks", ".shard0.cks");
        let text = dispatch(&args(&["inspect", "--snapshot", &shard0]))
            .expect("inspect succeeds");
        assert!(text.contains("shard             0 of 2"), "{text}");
        assert!(text.contains(&format!("crc32 {parent_crc:#010x}")), "{text}");

        let json = dispatch(&args(&["inspect", "--snapshot", &shard0, "--json"]))
            .expect("inspect --json succeeds");
        let value: serde_json::Value = serde_json::from_str(json.trim()).expect("valid JSON");
        let Some(shard) = circlekit_serve::protocol::wire::get(&value, "shard") else {
            panic!("shard manifest missing from {json}");
        };
        let get = |k| circlekit_serve::protocol::wire::get(shard, k);
        assert_eq!(get("count"), Some(&serde_json::Value::UInt(2)));
        assert_eq!(get("index"), Some(&serde_json::Value::UInt(0)));
        assert_eq!(
            get("parent_crc32"),
            Some(&serde_json::Value::UInt(u64::from(parent_crc)))
        );
        assert!(get("parent_nodes").is_some(), "{json}");
        assert!(get("parent_edges").is_some(), "{json}");
        assert!(get("parent_median_degree").is_some(), "{json}");
        // A plain snapshot reports no shard field at all.
        let json = dispatch(&args(&["inspect", "--snapshot", &snap, "--json"]))
            .expect("inspect succeeds");
        assert!(!json.contains("\"shard\""), "{json}");

        // Shard packing is CKS1-only and the index must be in range.
        let err = dispatch(&args(&[
            "pack", "--edges", &edges, "--out", &snap, "--shards", "2", "--format", "cks2",
        ]))
        .unwrap_err();
        assert!(err.contains("cks1"), "{err}");
        let err = dispatch(&args(&[
            "pack", "--edges", &edges, "--out", &snap, "--shards", "2", "--shard-index", "2",
        ]))
        .unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn shard_count_validation_is_uniform_across_commands() {
        let edges = tmp("sv.edges");
        fs::write(&edges, "0 1\n1 2\n2 0\n").unwrap();
        let out = tmp("sv.cks");
        // Both front ends reject 0 and garbage with the shared parser's
        // messages (loadgen shares the same parser by construction).
        let pack_zero = dispatch(&args(&[
            "pack", "--edges", &edges, "--out", &out, "--shards", "0",
        ]))
        .unwrap_err();
        let serve_zero = dispatch(&args(&[
            "serve", "--coordinator", "--shards", "127.0.0.1:1", "--shard-count", "0",
        ]))
        .unwrap_err();
        assert!(pack_zero.contains("at least 1"), "{pack_zero}");
        assert_eq!(pack_zero, serve_zero);
        let pack_garbage = dispatch(&args(&[
            "pack", "--edges", &edges, "--out", &out, "--shards", "many",
        ]))
        .unwrap_err();
        let serve_garbage = dispatch(&args(&[
            "serve", "--coordinator", "--shards", "127.0.0.1:1", "--shard-count", "many",
        ]))
        .unwrap_err();
        assert!(pack_garbage.contains("positive integer"), "{pack_garbage}");
        assert_eq!(pack_garbage, serve_garbage);
        // And the count must match the endpoint list before connecting.
        let err = dispatch(&args(&[
            "serve", "--coordinator", "--shards", "127.0.0.1:1", "--shard-count", "3",
        ]))
        .unwrap_err();
        assert!(err.contains("--shard-count 3 but --shards lists 1"), "{err}");
    }

    #[test]
    fn coordinator_score_table_matches_offline_and_reports_shard_rows() {
        let edges = tmp("co.edges");
        let groups = tmp("co.circles");
        let snap = tmp("co.cks");
        for i in 0..2u32 {
            let _ = fs::remove_file(tmp(&format!("co.shard{i}.cks")));
        }
        dispatch(&args(&[
            "generate", "google+", "--scale", "0.003", "--seed", "23",
            "--edges", &edges, "--groups", &groups,
        ]))
        .expect("generate succeeds");
        dispatch(&args(&["pack", "--edges", &edges, "--groups", &groups, "--out", &snap]))
            .expect("pack succeeds");
        dispatch(&args(&[
            "pack", "--edges", &edges, "--groups", &groups, "--out", &snap, "--shards", "2",
        ]))
        .expect("pack --shards succeeds");
        let offline = dispatch(&args(&["score", "--edges", &snap, "--all"]))
            .expect("offline score succeeds");

        // Reserve three ephemeral ports: two shard daemons + coordinator.
        let port = |_: usize| {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().port()
        };
        let shard_addrs: Vec<String> =
            (0..2).map(|i| format!("127.0.0.1:{}", port(i))).collect();
        let coord_addr = format!("127.0.0.1:{}", port(2));
        let shard_servers: Vec<_> = (0..2)
            .map(|i| {
                let path = snap.replace(".cks", &format!(".shard{i}.cks"));
                let addr = shard_addrs[i].clone();
                std::thread::spawn(move || {
                    dispatch(&args(&["serve", "--snapshot", &path, "--listen", &addr]))
                })
            })
            .collect();
        for addr in &shard_addrs {
            dispatch(&args(&["query", "--addr", addr, "health"])).expect("shard healthy");
        }
        let coordinator = {
            let shards = shard_addrs.join(",");
            let addr = coord_addr.clone();
            std::thread::spawn(move || {
                dispatch(&args(&[
                    "serve", "--coordinator", "--shards", &shards, "--shard-count", "2",
                    "--listen", &addr,
                ]))
            })
        };
        dispatch(&args(&["query", "--addr", &coord_addr, "health"]))
            .expect("coordinator healthy");

        let served = dispatch(&args(&[
            "query", "--addr", &coord_addr, "score-table", "--snapshot", "co", "--all",
        ]))
        .expect("query succeeds");
        assert_eq!(
            offline, served,
            "coordinator table must match the offline command byte-for-byte"
        );

        // `query stats` against a coordinator carries per-shard rows.
        let stats = dispatch(&args(&["query", "--addr", &coord_addr, "stats"]))
            .expect("stats succeeds");
        assert!(stats.contains("\"shards\":[{\"shard\":0,"), "{stats}");
        assert!(stats.contains("\"last_error\":null"), "{stats}");
        let status = dispatch(&args(&["query", "--addr", &coord_addr, "repl-status"]))
            .expect("repl-status succeeds");
        assert!(status.contains("\"role\":\"coordinator\""), "{status}");

        dispatch(&args(&["query", "--addr", &coord_addr, "shutdown"]))
            .expect("coordinator shutdown");
        coordinator.join().unwrap().expect("coordinator exits cleanly");
        for (i, server) in shard_servers.into_iter().enumerate() {
            dispatch(&args(&["query", "--addr", &shard_addrs[i], "shutdown"]))
                .expect("shard shutdown");
            server.join().unwrap().expect("shard exits cleanly");
        }
    }

    #[test]
    fn discover_renders_planted_triangles_deterministically() {
        let edges = tmp("dv.edges");
        // Ego 0 watches 1..=6; alters form two triangles bridged by 3-4.
        fs::write(
            &edges,
            "0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n1 2\n2 3\n1 3\n4 5\n5 6\n4 6\n3 4\n",
        )
        .unwrap();
        let out = dispatch(&args(&[
            "discover", "--edges", &edges, "--ego", "0", "--undirected",
        ]))
        .expect("discover succeeds");
        assert!(out.starts_with("ego 0  seed 2014  alters 6"), "{out}");
        assert!(out.contains("members 1 2 3"), "{out}");
        assert!(out.contains("members 4 5 6"), "{out}");
        // Same seed is byte-stable across thread counts.
        for t in ["1", "2", "5"] {
            let again = dispatch(&args(&[
                "discover", "--edges", &edges, "--ego", "0", "--undirected", "--threads", t,
            ]))
            .expect("discover succeeds");
            assert_eq!(out, again, "--threads {t}");
        }
        let err =
            dispatch(&args(&["discover", "--edges", &edges, "--ego", "99", "--undirected"]))
                .unwrap_err();
        assert!(err.contains("exceeds graph node count"), "{err}");
    }

    #[test]
    fn synth_ego_circles_feeds_eval_and_pack() {
        let edges = tmp("sy.edges");
        let groups = tmp("sy.circles");
        let owners = tmp("sy.owners");
        let snap = tmp("sy.cks");
        let out = dispatch(&args(&[
            "synth", "ego-circles", "google+", "--scale", "0.004", "--seed", "11",
            "--edges", &edges, "--groups", &groups, "--owners", &owners,
        ]))
        .expect("synth ego-circles succeeds");
        assert!(out.contains("wrote edges"), "{out}");
        assert!(out.contains("circle owners"), "{out}");
        let owner_lines = fs::read_to_string(&owners).unwrap().lines().count();
        let circle_lines = fs::read_to_string(&groups).unwrap().lines().count();
        assert_eq!(owner_lines, circle_lines, "one owner per circle");
        assert!(owner_lines > 0);

        // The emitted files pack into a snapshot unchanged.
        dispatch(&args(&[
            "pack", "--edges", &edges, "--groups", &groups, "--out", &snap,
        ]))
        .expect("pack succeeds");

        // And drive the eval harness: a table with all three methods,
        // plus a threshold gate in both directions.
        let table = dispatch(&args(&[
            "discover", "--eval", "--edges", &edges, "--groups", &groups,
            "--owners", &owners,
        ]))
        .expect("eval succeeds");
        for method in ["discover", "louvain", "girvan-newman"] {
            assert!(table.contains(method), "{table}");
        }
        let gated = dispatch(&args(&[
            "discover", "--eval", "--edges", &edges, "--groups", &groups,
            "--owners", &owners, "--min-f1", "0.0",
        ]))
        .expect("trivial gate passes");
        assert!(gated.contains("f1 gate passed"), "{gated}");
        let err = dispatch(&args(&[
            "discover", "--eval", "--edges", &edges, "--groups", &groups,
            "--owners", &owners, "--min-f1", "1.1",
        ]))
        .unwrap_err();
        assert!(err.contains("below --min-f1"), "{err}");
    }

    #[test]
    fn query_suggest_circles_matches_offline_discover_bytes() {
        let edges = tmp("qd.edges");
        let groups = tmp("qd.circles");
        let owners = tmp("qd.owners");
        let snap = tmp("qd.cks");
        let _ = fs::remove_file(format!("{snap}.ckw"));
        dispatch(&args(&[
            "synth", "ego-circles", "google+", "--scale", "0.004", "--seed", "11",
            "--edges", &edges, "--groups", &groups, "--owners", &owners,
        ]))
        .expect("synth succeeds");
        dispatch(&args(&[
            "pack", "--edges", &edges, "--groups", &groups, "--out", &snap,
        ]))
        .expect("pack succeeds");
        let ego = fs::read_to_string(&owners)
            .unwrap()
            .lines()
            .next()
            .unwrap()
            .trim()
            .to_string();
        let offline =
            dispatch(&args(&["discover", "--edges", &snap, "--ego", &ego]))
                .expect("offline discover succeeds");

        let port = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let server = {
            let snap = snap.clone();
            let addr = addr.clone();
            std::thread::spawn(move || {
                dispatch(&args(&["serve", "--snapshot", &snap, "--listen", &addr]))
            })
        };
        let snapshot_id = std::path::Path::new(&snap)
            .file_stem()
            .unwrap()
            .to_string_lossy()
            .into_owned();
        let served = dispatch(&args(&[
            "query", "--addr", &addr, "suggest-circles", "--snapshot", &snapshot_id,
            "--ego", &ego,
        ]))
        .expect("query suggest-circles succeeds");
        assert_eq!(offline, served, "CLI and serve must render identical bytes");

        dispatch(&args(&["query", "--addr", &addr, "shutdown"])).expect("shutdown succeeds");
        server.join().unwrap().expect("serve exits cleanly");
    }

    #[test]
    fn corrupted_snapshot_is_a_structured_cli_error() {
        let edges = tmp("cr.edges");
        let snap = tmp("cr.cks");
        fs::write(&edges, "0 1\n1 2\n").unwrap();
        dispatch(&args(&["pack", "--edges", &edges, "--out", &snap])).expect("pack succeeds");
        let mut bytes = fs::read(&snap).unwrap();
        // First payload byte of the first section (fixed header 32 +
        // section header 16): a guaranteed checksum failure.
        bytes[48] ^= 0xff;
        fs::write(&snap, &bytes).unwrap();
        let err = dispatch(&args(&["score", "--edges", &snap])).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
    }
}
