//! DQL execution against a DLV repository (`dlv query`).

use crate::ast::*;
use crate::selector::{substitute, Selector};
use crate::DqlError;
use mh_dlv::{CommitRequest, DlvError, Repository, VersionKey, VersionSummary};
use mh_dnn::{
    accuracy, Activation, Dataset, Hyperparams, LayerKind, Network, NodeId, PoolKind, Trainer,
    Weights,
};
use std::collections::BTreeMap;

/// A derived (not yet trained) model produced by `slice` or `construct`.
#[derive(Debug, Clone)]
pub struct DerivedModel {
    /// The version it was derived from.
    pub source: VersionKey,
    pub network: Network,
    /// Warm-start weights for the layers that survived the mutation.
    pub init: Option<Weights>,
    /// Human-readable description of the derivation.
    pub derivation: String,
}

/// One row of an `evaluate` result.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    pub source: VersionKey,
    /// Config description, e.g. `base_lr=0.01 data=path1`.
    pub config: String,
    pub loss: f32,
    pub accuracy: f32,
    pub kept: bool,
    /// Where the kept model was committed.
    pub committed: Option<VersionKey>,
}

/// The result of running a query.
#[derive(Debug, Clone)]
pub enum QueryResult {
    /// `select`: matching model versions.
    Versions(Vec<VersionSummary>),
    /// `slice` / `construct`: derived networks.
    Derived(Vec<DerivedModel>),
    /// `evaluate`: per-configuration outcomes (kept rows first).
    Evaluated(Vec<EvalOutcome>),
}

/// Executes parsed DQL queries against a repository.
pub struct Executor<'a> {
    repo: &'a Repository,
    /// Named datasets for `config.input_data`.
    datasets: BTreeMap<String, Dataset>,
    /// Named base configurations for `with config = "..."`.
    configs: BTreeMap<String, Hyperparams>,
    /// Default training length when `keep` gives none.
    pub default_iterations: usize,
    /// Default dataset when an evaluate query names none.
    pub default_dataset: Option<String>,
    /// Per-layer lr multipliers tried by `auto` (the default grid-search
    /// strategy).
    pub auto_lr_grid: Vec<f32>,
    /// Whether kept models are committed back into the repository.
    pub commit_kept: bool,
}

impl<'a> Executor<'a> {
    pub fn new(repo: &'a Repository) -> Self {
        Self {
            repo,
            datasets: BTreeMap::new(),
            configs: BTreeMap::new(),
            default_iterations: 20,
            default_dataset: None,
            auto_lr_grid: vec![1.0, 0.1],
            commit_kept: true,
        }
    }

    /// Register a dataset under a name referable from `config.input_data`.
    pub fn register_dataset(&mut self, name: &str, data: Dataset) {
        if self.default_dataset.is_none() {
            self.default_dataset = Some(name.to_string());
        }
        self.datasets.insert(name.to_string(), data);
    }

    /// Register a base configuration referable from `with config = "..."`.
    pub fn register_config(&mut self, name: &str, hp: Hyperparams) {
        self.configs.insert(name.to_string(), hp);
    }

    /// Parse and run a DQL string.
    pub fn run(&self, query: &str) -> Result<QueryResult, DqlError> {
        let q = {
            let _sp = mh_obs::span("dql.parse");
            crate::parser::parse(query).map_err(DqlError::Parse)?
        };
        self.execute(&q)
    }

    /// Check-only mode: parse and semantically analyze a query against this
    /// executor's repository, registered configs, and datasets — without
    /// executing it. Returns the diagnostics (empty = clean).
    pub fn check(&self, query: &str) -> Result<Vec<crate::analyze::Diagnostic>, DqlError> {
        let q = {
            let _sp = mh_obs::span("dql.parse");
            crate::parser::parse(query).map_err(DqlError::Parse)?
        };
        let _sp = mh_obs::span("dql.analyze");
        let mut ctx = crate::analyze::AnalyzeContext::from_repository(self.repo);
        ctx.configs = Some(self.configs.keys().cloned().collect());
        ctx.datasets = Some(self.datasets.keys().cloned().collect());
        Ok(crate::analyze::analyze(&q, query, &ctx))
    }

    /// Run a parsed query.
    pub fn execute(&self, q: &Query) -> Result<QueryResult, DqlError> {
        let kind = match q {
            Query::Select(_) => "select",
            Query::Slice(_) => "slice",
            Query::Construct(_) => "construct",
            Query::Evaluate(_) => "evaluate",
        };
        let mut sp = mh_obs::span("dql.execute");
        let result = match q {
            Query::Select(s) => QueryResult::Versions(self.select(s)?),
            Query::Slice(s) => QueryResult::Derived(self.slice(s)?),
            Query::Construct(c) => QueryResult::Derived(self.construct(c)?),
            Query::Evaluate(e) => QueryResult::Evaluated(self.evaluate(e)?),
        };
        if sp.is_recording() {
            sp.field("kind", kind);
            let rows = match &result {
                QueryResult::Versions(v) => v.len(),
                QueryResult::Derived(d) => d.len(),
                QueryResult::Evaluated(e) => e.len(),
            };
            sp.field("rows", rows);
        }
        Ok(result)
    }

    // ---- select -------------------------------------------------------

    fn select(&self, q: &SelectQuery) -> Result<Vec<VersionSummary>, DqlError> {
        // Reorder conjuncts so cheap metadata predicates filter candidates
        // before expensive structural (network-loading) checks.
        let pred = {
            let _sp = mh_obs::span("dql.optimize");
            crate::optimizer::optimize(&q.pred)
        };
        let mut out = Vec::new();
        for summary in self.repo.list() {
            if self.eval_pred(&pred, &q.alias, &summary)? {
                out.push(summary);
            }
        }
        Ok(out)
    }

    fn eval_pred(
        &self,
        pred: &Pred,
        alias: &str,
        summary: &VersionSummary,
    ) -> Result<bool, DqlError> {
        Ok(match pred {
            Pred::True => true,
            Pred::And(a, b) => {
                self.eval_pred(a, alias, summary)? && self.eval_pred(b, alias, summary)?
            }
            Pred::Or(a, b) => {
                self.eval_pred(a, alias, summary)? || self.eval_pred(b, alias, summary)?
            }
            Pred::Not(a) => !self.eval_pred(a, alias, summary)?,
            Pred::Like(path, pat) => {
                let text = self.text_attr(path, alias, summary)?;
                mh_store::like_match(pat, &text)
            }
            Pred::Cmp(path, op, lit) => {
                let x = self.num_attr(path, alias, summary)?;
                let y = match lit {
                    Literal::Num(n) => *n,
                    _ => return Err(DqlError::BadQuery("numeric literal expected")),
                };
                match op {
                    CmpOp::Eq => (x - y).abs() < f64::EPSILON,
                    CmpOp::Ne => (x - y).abs() >= f64::EPSILON,
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                }
            }
            Pred::Has(path, tpl) => self.eval_has(path, tpl, alias, summary)?,
        })
    }

    fn check_alias(&self, path: &Path, alias: &str) -> Result<(), DqlError> {
        if path.root != alias {
            return Err(DqlError::BadQuery("unknown alias in predicate path"));
        }
        Ok(())
    }

    fn text_attr(
        &self,
        path: &Path,
        alias: &str,
        summary: &VersionSummary,
    ) -> Result<String, DqlError> {
        self.check_alias(path, alias)?;
        match path.attr_only() {
            Some("name") => Ok(summary.key.name.clone()),
            Some("arch") | Some("architecture") => Ok(summary.architecture.clone()),
            Some("comment") => Ok(summary.comment.clone()),
            _ => Err(DqlError::BadQuery("unknown text attribute")),
        }
    }

    fn num_attr(
        &self,
        path: &Path,
        alias: &str,
        summary: &VersionSummary,
    ) -> Result<f64, DqlError> {
        self.check_alias(path, alias)?;
        match path.attr_only() {
            Some("creation_time") | Some("created") => Ok(summary.created as f64),
            Some("accuracy") => Ok(summary.accuracy.unwrap_or(f64::NAN)),
            Some("params") | Some("param_count") => Ok(summary.param_count as f64),
            Some("id") => Ok(summary.key.id as f64),
            Some("num_snapshots") => Ok(summary.num_snapshots as f64),
            _ => Err(DqlError::BadQuery("unknown numeric attribute")),
        }
    }

    /// `m["sel"](.next|.prev)? has TEMPLATE(...)`.
    fn eval_has(
        &self,
        path: &Path,
        tpl: &NodeTemplate,
        alias: &str,
        summary: &VersionSummary,
    ) -> Result<bool, DqlError> {
        self.check_alias(path, alias)?;
        let net = self
            .repo
            .get_network(&summary.key.to_string())
            .map_err(DqlError::Dlv)?;
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut first = true;
        for step in &path.steps {
            match step {
                PathStep::Selector(sel) => {
                    if !first {
                        return Err(DqlError::BadQuery("selector must come first in path"));
                    }
                    let s = Selector::compile(sel).map_err(DqlError::Selector)?;
                    nodes = net
                        .nodes()
                        .filter(|n| s.is_match(&n.name))
                        .map(|n| n.id)
                        .collect();
                }
                PathStep::Attr(a) if a == "next" => {
                    nodes = nodes.iter().flat_map(|&id| net.next(id)).collect();
                }
                PathStep::Attr(a) if a == "prev" => {
                    nodes = nodes.iter().flat_map(|&id| net.prev(id)).collect();
                }
                PathStep::Attr(_) => return Err(DqlError::BadQuery("unknown traversal attribute")),
            }
            first = false;
        }
        Ok(nodes
            .iter()
            .filter_map(|&id| net.node(id).ok())
            .any(|n| template_matches(tpl, &n.kind)))
    }

    // ---- slice --------------------------------------------------------

    fn slice(&self, q: &SliceQuery) -> Result<Vec<DerivedModel>, DqlError> {
        let matches = self.select(&SelectQuery {
            alias: q.in_alias.clone(),
            pred: q.pred.clone(),
        })?;
        let in_sel = Selector::compile(&q.input_selector).map_err(DqlError::Selector)?;
        let out_sel = Selector::compile(&q.output_selector).map_err(DqlError::Selector)?;
        let mut out = Vec::new();
        for summary in matches {
            let spec = summary.key.to_string();
            let net = self.repo.get_network(&spec).map_err(DqlError::Dlv)?;
            let start = net.nodes().find(|n| in_sel.is_match(&n.name)).map(|n| n.id);
            let end = net
                .nodes()
                .find(|n| out_sel.is_match(&n.name))
                .map(|n| n.id);
            let (Some(start), Some(end)) = (start, end) else {
                continue; // model lacks the requested endpoints
            };
            let sub = net.slice(start, end).map_err(DqlError::Network)?;
            // Carry the weights of surviving parametric layers.
            let init = self.surviving_weights(&spec, &sub)?;
            out.push(DerivedModel {
                source: summary.key.clone(),
                network: sub,
                init,
                derivation: format!(
                    "slice[{} .. {}] of {}",
                    q.input_selector, q.output_selector, summary.key
                ),
            });
        }
        Ok(out)
    }

    fn surviving_weights(
        &self,
        spec: &str,
        derived: &Network,
    ) -> Result<Option<Weights>, DqlError> {
        let Some(full) = self.latest_weights(spec)? else {
            return Ok(None);
        };
        let mut w = Weights::new();
        for node in derived.nodes() {
            if node.kind.is_parametric() {
                if let Some(m) = full.get(&node.name) {
                    w.insert(&node.name, m.clone());
                }
            }
        }
        Ok(Some(w))
    }

    /// The latest weights of `spec`, or `None` for a version with no
    /// snapshot. Any other failed read (a truncated plane, a missing
    /// store, a bad catalog row) is an error, never "no weights": a
    /// derived model must not silently lose its warm start.
    fn latest_weights(&self, spec: &str) -> Result<Option<Weights>, DqlError> {
        no_snapshot_is_none(self.repo.get_weights(spec, None))
    }

    // ---- construct ----------------------------------------------------

    fn construct(&self, q: &ConstructQuery) -> Result<Vec<DerivedModel>, DqlError> {
        let matches = self.select(&SelectQuery {
            alias: q.in_alias.clone(),
            pred: q.pred.clone(),
        })?;
        let mut out = Vec::new();
        for summary in matches {
            let spec = summary.key.to_string();
            let mut net = self.repo.get_network(&spec).map_err(DqlError::Dlv)?;
            let mut derivation = Vec::new();
            let mut mutated = false;
            for action in &q.actions {
                match action {
                    MutationAction::Insert { selector, template } => {
                        let sel = Selector::compile(selector).map_err(DqlError::Selector)?;
                        let targets: Vec<(NodeId, Vec<String>)> = net
                            .nodes()
                            .filter_map(|n| sel.captures(&n.name).map(|c| (n.id, c)))
                            .collect();
                        for (id, caps) in targets {
                            let (name, kind) =
                                instantiate_template(template, &caps, net.num_nodes())?;
                            net.insert_after(id, &name, kind.clone())
                                .map_err(DqlError::Network)?;
                            derivation.push(format!("insert {name}"));
                            mutated = true;
                        }
                    }
                    MutationAction::Delete { selector } => {
                        let sel = Selector::compile(selector).map_err(DqlError::Selector)?;
                        let targets: Vec<NodeId> = net
                            .nodes()
                            .filter(|n| sel.is_match(&n.name))
                            .map(|n| n.id)
                            .collect();
                        for id in targets {
                            let name = net.node(id).map_err(DqlError::Network)?.name.clone();
                            net.delete_node(id).map_err(DqlError::Network)?;
                            derivation.push(format!("delete {name}"));
                            mutated = true;
                        }
                    }
                }
            }
            if !mutated {
                continue;
            }
            // Skip structurally broken results (shape inference fails).
            if net.infer_shapes().is_err() {
                continue;
            }
            let init = self.surviving_weights(&spec, &net)?;
            out.push(DerivedModel {
                source: summary.key.clone(),
                network: net,
                init,
                derivation: format!("{} [{}]", summary.key, derivation.join(", ")),
            });
        }
        Ok(out)
    }

    // ---- evaluate -----------------------------------------------------

    fn evaluate(&self, q: &EvaluateQuery) -> Result<Vec<EvalOutcome>, DqlError> {
        // Resolve the candidate models.
        let candidates: Vec<DerivedModel> = match &q.source {
            EvalSource::Named(pattern) => {
                let pred = Pred::Like(
                    Path {
                        root: "m".into(),
                        steps: vec![PathStep::Attr("name".into())],
                    },
                    pattern.clone(),
                );
                self.select(&SelectQuery {
                    alias: "m".into(),
                    pred,
                })?
                .into_iter()
                .map(|s| -> Result<DerivedModel, DqlError> {
                    let spec = s.key.to_string();
                    Ok(DerivedModel {
                        network: self.repo.get_network(&spec).map_err(DqlError::Dlv)?,
                        init: self.latest_weights(&spec)?,
                        source: s.key,
                        derivation: spec,
                    })
                })
                .collect::<Result<_, _>>()?
            }
            EvalSource::Nested(inner) => match self.execute(inner)? {
                QueryResult::Derived(d) => d,
                QueryResult::Versions(v) => v
                    .into_iter()
                    .map(|s| -> Result<DerivedModel, DqlError> {
                        let spec = s.key.to_string();
                        Ok(DerivedModel {
                            network: self.repo.get_network(&spec).map_err(DqlError::Dlv)?,
                            init: self.latest_weights(&spec)?,
                            source: s.key,
                            derivation: spec,
                        })
                    })
                    .collect::<Result<_, _>>()?,
                QueryResult::Evaluated(_) => {
                    return Err(DqlError::BadQuery("evaluate cannot nest evaluate"))
                }
            },
        };
        if candidates.is_empty() {
            return Ok(Vec::new());
        }

        // Base configuration.
        let mut base = match &q.config {
            Some(name) => self.configs.get(name).cloned().unwrap_or_default(),
            None => Hyperparams::default(),
        };
        base.layer_lr.clear();

        let iterations = match &q.keep {
            Some(KeepRule::Top { iterations, .. })
            | Some(KeepRule::Threshold { iterations, .. }) => *iterations,
            None => self.default_iterations,
        };

        // Expand the vary grid.
        let mut configs: Vec<(Hyperparams, String, String)> =
            vec![(base, String::new(), String::new())];
        for clause in &q.vary {
            configs = self.expand_vary(clause, &configs)?;
        }
        // Attach the default dataset where none was chosen.
        for c in configs.iter_mut() {
            if c.2.is_empty() {
                c.2 = self
                    .default_dataset
                    .clone()
                    .ok_or(DqlError::BadQuery("no dataset registered"))?;
            }
        }

        // Train every (model, config) combination.
        let mut outcomes = Vec::new();
        for cand in &candidates {
            // Models without an INPUT layer (pure slices) cannot be run.
            if cand.network.input_node().is_err() {
                continue;
            }
            for (hp, desc, data_name) in &configs {
                let data = self
                    .datasets
                    .get(data_name)
                    .ok_or(DqlError::UnknownDataset(data_name.clone()))?;
                // Merge warm-start weights with fresh ones.
                let fresh = Weights::init(&cand.network, 17).map_err(DqlError::Network)?;
                let mut init = Weights::new();
                for (name, m) in fresh.layers() {
                    match cand.init.as_ref().and_then(|w| w.get(name)) {
                        Some(old) if old.shape() == m.shape() => init.insert(name, old.clone()),
                        _ => init.insert(name, m.clone()),
                    }
                }
                let mut hp = hp.clone();
                // Resolve layer-lr selectors recorded as "@sel" pseudo keys.
                let pseudo: Vec<(String, f32)> = hp
                    .layer_lr
                    .iter()
                    .filter(|(k, _)| k.starts_with('@'))
                    .map(|(k, v)| (k.clone(), *v))
                    .collect();
                for (k, mult) in pseudo {
                    hp.layer_lr.remove(&k);
                    let sel = Selector::compile(&k[1..]).map_err(DqlError::Selector)?;
                    for node in cand.network.nodes() {
                        if node.kind.is_parametric() && sel.is_match(&node.name) {
                            hp.layer_lr.insert(node.name.clone(), mult);
                        }
                    }
                }
                let trainer = Trainer::new(hp);
                let result = match trainer.train(&cand.network, init, data, iterations) {
                    Ok(r) => r,
                    Err(_) => continue, // incompatible data/model combo
                };
                let loss = trainer
                    .eval_loss(&cand.network, &result.weights, &data.test)
                    .unwrap_or(f32::INFINITY);
                let acc = accuracy(&cand.network, &result.weights, &data.test).unwrap_or(0.0);
                outcomes.push((
                    cand,
                    result,
                    EvalOutcome {
                        source: cand.source.clone(),
                        config: format!("{desc} data={data_name}").trim().to_string(),
                        loss,
                        accuracy: acc,
                        kept: false,
                        committed: None,
                    },
                ));
            }
        }

        // Apply the keep rule.
        let metric_of = |o: &EvalOutcome, metric: &str| -> f64 {
            match metric {
                "loss" => f64::from(o.loss),
                "accuracy" => f64::from(o.accuracy),
                _ => f64::from(o.loss),
            }
        };
        let keep_flags: Vec<bool> = match &q.keep {
            None => vec![true; outcomes.len()],
            Some(KeepRule::Top { k, metric, .. }) => {
                let mut idx: Vec<usize> = (0..outcomes.len()).collect();
                let ascending = metric == "loss";
                idx.sort_by(|&a, &b| {
                    let (x, y) = (
                        metric_of(&outcomes[a].2, metric),
                        metric_of(&outcomes[b].2, metric),
                    );
                    if ascending {
                        x.total_cmp(&y)
                    } else {
                        y.total_cmp(&x)
                    }
                });
                let mut flags = vec![false; outcomes.len()];
                for &i in idx.iter().take(*k) {
                    flags[i] = true;
                }
                flags
            }
            Some(KeepRule::Threshold {
                metric, op, value, ..
            }) => outcomes
                .iter()
                .map(|(_, _, o)| {
                    let x = metric_of(o, metric);
                    match op {
                        CmpOp::Lt => x < *value,
                        CmpOp::Le => x <= *value,
                        CmpOp::Gt => x > *value,
                        CmpOp::Ge => x >= *value,
                        CmpOp::Eq => (x - *value).abs() < 1e-12,
                        CmpOp::Ne => (x - *value).abs() >= 1e-12,
                    }
                })
                .collect(),
        };

        // Commit kept models back into the repository with lineage.
        let mut final_rows = Vec::new();
        for (i, (cand, result, mut outcome)) in outcomes.into_iter().enumerate() {
            outcome.kept = keep_flags[i];
            if outcome.kept && self.commit_kept {
                let name = format!("{}-{}-e{}", q.alias, cand.source.name, i);
                let mut req = CommitRequest::new(&name, cand.network.clone());
                req.snapshots = vec![(iterations, result.weights.clone())];
                req.log = result.log.clone();
                req.accuracy = Some(outcome.accuracy);
                req.parent = Some(cand.source.to_string());
                req.comment = format!("dql evaluate: {} ({})", cand.derivation, outcome.config);
                req.hyperparams
                    .insert("dql_config".into(), outcome.config.clone());
                let key = self.repo.commit(&req).map_err(DqlError::Dlv)?;
                outcome.committed = Some(key);
            }
            final_rows.push(outcome);
        }
        // Kept rows first, then by loss.
        final_rows.sort_by(|a, b| b.kept.cmp(&a.kept).then(a.loss.total_cmp(&b.loss)));
        Ok(final_rows)
    }

    fn expand_vary(
        &self,
        clause: &VaryClause,
        configs: &[(Hyperparams, String, String)],
    ) -> Result<Vec<(Hyperparams, String, String)>, DqlError> {
        let mut out = Vec::new();
        match clause {
            VaryClause::Grid { key, values } => {
                for (hp, desc, data) in configs {
                    for v in values {
                        let Literal::Num(n) = v else {
                            return Err(DqlError::BadQuery("numeric grid values expected"));
                        };
                        let mut hp = hp.clone();
                        match key.as_str() {
                            "base_lr" => hp.base_lr = *n as f32,
                            "momentum" => hp.momentum = *n as f32,
                            "weight_decay" => hp.weight_decay = *n as f32,
                            "batch_size" => hp.batch_size = (*n as usize).max(1),
                            "lr_gamma" => hp.lr_gamma = *n as f32,
                            _ => return Err(DqlError::BadQuery("unknown config key")),
                        }
                        out.push((
                            hp,
                            format!("{desc} {key}={n}").trim().to_string(),
                            data.clone(),
                        ));
                    }
                }
            }
            VaryClause::LayerLrAuto { selector } => {
                for (hp, desc, data) in configs {
                    for &mult in &self.auto_lr_grid {
                        let mut hp = hp.clone();
                        // Store as a pseudo key; resolved per network later.
                        hp.layer_lr.insert(format!("@{selector}"), mult);
                        out.push((
                            hp,
                            format!("{desc} lr[{selector}]={mult}").trim().to_string(),
                            data.clone(),
                        ));
                    }
                }
            }
            VaryClause::InputData { names } => {
                for (hp, desc, _) in configs {
                    for name in names {
                        out.push((hp.clone(), desc.clone(), name.clone()));
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Map a weight read to warm-start weights: only `NoSuchSnapshot` (a
/// version with no snapshot) means "no weights".
fn no_snapshot_is_none(read: Result<Weights, DlvError>) -> Result<Option<Weights>, DqlError> {
    match read {
        Ok(w) => Ok(Some(w)),
        Err(DlvError::NoSuchSnapshot(_)) => Ok(None),
        Err(e) => Err(DqlError::Dlv(e)),
    }
}

/// Does a node's kind match a `has` template?
fn template_matches(tpl: &NodeTemplate, kind: &LayerKind) -> bool {
    if tpl.ty != kind.type_name() {
        return false;
    }
    match (tpl.ty.as_str(), kind) {
        ("POOL", LayerKind::Pool { kind: pk, .. }) => match tpl.args.first() {
            Some(Literal::Str(s)) => {
                (s.eq_ignore_ascii_case("max") && *pk == PoolKind::Max)
                    || (s.eq_ignore_ascii_case("avg") && *pk == PoolKind::Avg)
            }
            _ => true,
        },
        ("CONV", LayerKind::Conv { out_channels, .. }) => match tpl.args.first() {
            Some(Literal::Num(n)) => *out_channels == *n as usize,
            _ => true,
        },
        ("FULL", LayerKind::Full { out }) => match tpl.args.first() {
            Some(Literal::Num(n)) => *out == *n as usize,
            _ => true,
        },
        _ => true,
    }
}

/// Instantiate an insert template into a concrete (name, layer).
fn instantiate_template(
    tpl: &NodeTemplate,
    caps: &[String],
    uniq: usize,
) -> Result<(String, LayerKind), DqlError> {
    let str_arg = |i: usize| -> Option<String> {
        tpl.args.get(i).and_then(|l| match l {
            Literal::Str(s) => Some(substitute(s, caps)),
            _ => None,
        })
    };
    let num_arg = |i: usize| -> Option<f64> {
        tpl.args.get(i).and_then(|l| match l {
            Literal::Num(n) => Some(*n),
            _ => None,
        })
    };
    let auto_name = |prefix: &str| format!("{prefix}_dql{uniq}");
    Ok(match tpl.ty.as_str() {
        "RELU" => (
            str_arg(0).unwrap_or_else(|| auto_name("relu")),
            LayerKind::Act(Activation::ReLU),
        ),
        "SIGMOID" => (
            str_arg(0).unwrap_or_else(|| auto_name("sigmoid")),
            LayerKind::Act(Activation::Sigmoid),
        ),
        "TANH" => (
            str_arg(0).unwrap_or_else(|| auto_name("tanh")),
            LayerKind::Act(Activation::Tanh),
        ),
        "DROPOUT" => (
            str_arg(1).unwrap_or_else(|| auto_name("drop")),
            LayerKind::Dropout {
                rate: num_arg(0).unwrap_or(0.5) as f32,
            },
        ),
        "FLATTEN" => (
            str_arg(0).unwrap_or_else(|| auto_name("flatten")),
            LayerKind::Flatten,
        ),
        "POOL" => {
            let kind = match str_arg(0).as_deref() {
                Some(s) if s.eq_ignore_ascii_case("avg") => PoolKind::Avg,
                _ => PoolKind::Max,
            };
            (
                str_arg(3).unwrap_or_else(|| auto_name("pool")),
                LayerKind::Pool {
                    kind,
                    size: num_arg(1).unwrap_or(2.0) as usize,
                    stride: num_arg(2).unwrap_or(2.0) as usize,
                },
            )
        }
        "FULL" => (
            str_arg(1).unwrap_or_else(|| auto_name("fc")),
            LayerKind::Full {
                out: num_arg(0).unwrap_or(10.0) as usize,
            },
        ),
        "CONV" => (
            str_arg(4).unwrap_or_else(|| auto_name("conv")),
            LayerKind::Conv {
                out_channels: num_arg(0).unwrap_or(8.0) as usize,
                kernel: num_arg(1).unwrap_or(3.0) as usize,
                stride: num_arg(2).unwrap_or(1.0) as usize,
                pad: num_arg(3).unwrap_or(0.0) as usize,
            },
        ),
        "NORM" | "LRN" => (
            str_arg(4).unwrap_or_else(|| auto_name("norm")),
            LayerKind::Lrn {
                size: num_arg(0).unwrap_or(5.0) as usize,
                alpha: num_arg(1).unwrap_or(1e-4) as f32,
                beta: num_arg(2).unwrap_or(0.75) as f32,
                k: num_arg(3).unwrap_or(2.0) as f32,
            },
        ),
        _ => return Err(DqlError::BadQuery("unknown node template")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_missing_snapshot_means_no_weights() {
        assert!(matches!(
            no_snapshot_is_none(Err(DlvError::NoSuchSnapshot(0))),
            Ok(None)
        ));
        assert!(matches!(
            no_snapshot_is_none(Ok(Weights::new())),
            Ok(Some(_))
        ));
        assert!(matches!(
            no_snapshot_is_none(Err(DlvError::Corrupt("truncated plane"))),
            Err(DqlError::Dlv(DlvError::Corrupt(_)))
        ));
    }
}
