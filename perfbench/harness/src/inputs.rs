//! Every input the benchmark feeds the program, derived from `--seed`
//! alone: perturbed paper specs, large-pool blocks and the `serve_mix`
//! request schedule. Nothing here is timed.

use rascad_obs::json::Value;
use rascad_spec::units::Hours;
use rascad_spec::{Block, BlockParams, Diagram, GlobalParams, RedundancyParams, SystemSpec};

use crate::rng::Rng;

/// The four paper-scale specs, by the names the daemon stores them under.
pub const PAPER_NAMES: [&str; 4] = ["web_service", "edge_cache", "datacenter", "e10000"];

/// `paper_mix` visits the specs in this fixed rotation. Doubling
/// `web_service` (the middle cost) keeps the median inside one spec's
/// latency cluster instead of on the gap between two.
pub const PAPER_ROTATION: [usize; 5] = [0, 1, 0, 2, 3];

pub fn paper_base(index: usize) -> SystemSpec {
    match index {
        0 => SystemSpec::from_dsl(include_str!("../../../specs/web_service.rascad"))
            .expect("bundled spec parses"),
        1 => SystemSpec::from_dsl(include_str!("../../../specs/edge_cache.rascad"))
            .expect("bundled spec parses"),
        2 => rascad_library::datacenter::data_center(),
        _ => rascad_library::e10000::e10000(),
    }
}

pub fn paper_bases() -> Vec<SystemSpec> {
    (0..PAPER_NAMES.len()).map(paper_base).collect()
}

/// A copy of `base` with every block's MTBF scaled by its own factor in
/// `[0.8, 1.25)`, rendered as DSL: a fresh spec whose chains all differ
/// from any earlier draw, so every block misses the solve cache.
pub fn perturbed_dsl(base: &SystemSpec, rng: &mut Rng) -> String {
    let mut spec = base.clone();
    spec.root.walk_mut(&mut |b: &mut Block| {
        b.params.mtbf = Hours(b.params.mtbf.0 * rng.range(0.8, 1.25));
    });
    spec.to_dsl()
}

/// Units and minimum of the `large_pool` block (the shape of the
/// repository's `large_block()` bench fixture: 1001 occupancy states).
pub const POOL_UNITS: u32 = 1000;
pub const POOL_MIN: u32 = 900;
pub const POOL_MTBF_RANGE: (f64, f64) = (90_000.0, 115_000.0);

pub fn pool_dsl(mtbf: f64) -> String {
    sized_pool_dsl(POOL_UNITS, POOL_MIN, mtbf)
}

/// A one-block spec: a pool of `units` needing `min` of them.
pub fn sized_pool_dsl(units: u32, min: u32, mtbf: f64) -> String {
    let mut root = Diagram::new("Large Pool");
    root.push_block(Block::leaf(
        BlockParams::new("Large Pool", units, min)
            .with_mtbf(Hours(mtbf))
            .with_redundancy(RedundancyParams::default()),
    ));
    SystemSpec::new(root, GlobalParams::default()).to_dsl()
}

/// One in-process operation's input.
#[derive(Debug, Clone)]
pub struct OpInput {
    /// Spec label for reports (`web_service`, `large_pool`, ...).
    pub label: &'static str,
    pub dsl: String,
    /// Deadline of a deadline-bounded operation, ms.
    pub deadline_ms: Option<u64>,
}

/// Deadline of `large_pool`'s deadline-bounded solves.
pub const POOL_DEADLINE_MS: u64 = 50;

/// The `i`-th operation of an in-process workload. Each operation has
/// its own child stream, so operation `i` is the same whatever ran
/// before it.
pub fn op_input(workload: &str, seed: u64, i: usize, bases: &[SystemSpec]) -> OpInput {
    let mut rng = Rng::new(seed).fork(i as u64 + 1);
    if workload == "paper_mix" {
        let which = PAPER_ROTATION[i % PAPER_ROTATION.len()];
        OpInput {
            label: PAPER_NAMES[which],
            dsl: perturbed_dsl(&bases[which], &mut rng),
            deadline_ms: None,
        }
    } else {
        // Even operations are full solves, odd ones deadline-bounded.
        let bounded = !i.is_multiple_of(2);
        let mtbf = rng.range(POOL_MTBF_RANGE.0, POOL_MTBF_RANGE.1);
        OpInput {
            label: if bounded { "large_pool_deadline" } else { "large_pool" },
            dsl: pool_dsl(mtbf),
            deadline_ms: bounded.then_some(POOL_DEADLINE_MS),
        }
    }
}

// ---------------------------------------------------------------- serve_mix

/// The latency limit of a served request, ms; also each solve's
/// `deadline_ms`.
pub const LATENCY_LIMIT_MS: u64 = 250;
/// Offered rate per lane, requests per second (20 in total).
pub const LANE_RATES: [f64; 2] = [10.0, 10.0];
/// The request mix, dealt from a seeded shuffle of this deck so every
/// 20 requests of a lane hold exactly these kinds: 60 % warm solves,
/// 15 % cold, 10 % sweeps, 10 % puts, 5 % lints.
const MIX_DECK: [(Kind, usize); 5] =
    [(Kind::Warm, 12), (Kind::Cold, 3), (Kind::Sweep, 2), (Kind::Put, 2), (Kind::Lint, 1)];
/// Two tenants per lane: a tenant's requests are serialized on its
/// lane, so the benchmark knows which stored version every solve saw.
pub const LANE_TENANTS: [[&str; 2]; 2] = [["tenant-a", "tenant-b"], ["tenant-c", "tenant-d"]];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Warm,
    Cold,
    Sweep,
    Put,
    Lint,
    Scrape,
}

impl Kind {
    pub fn path(self) -> &'static str {
        match self {
            Kind::Warm | Kind::Cold => "/v1/solve",
            Kind::Sweep => "/v1/sweep",
            Kind::Put => "/v1/specs",
            Kind::Lint => "/v1/lint",
            Kind::Scrape => "/metrics",
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Due time from the start of the run, seconds.
    pub due: f64,
    /// 0 = keep-alive lane, 1 = fresh-connection lane.
    pub lane: usize,
    pub kind: Kind,
    pub tenant: &'static str,
    /// Stored spec name a warm solve, sweep or put targets.
    pub spec_name: Option<&'static str>,
    /// Compact JSON body (empty for the scrape).
    pub body: String,
}

pub fn put_body(tenant: &str, name: &str, dsl: &str) -> String {
    obj(vec![
        ("tenant", Value::Str(tenant.into())),
        ("name", Value::Str(name.into())),
        ("spec", Value::Str(dsl.into())),
    ])
}

fn obj(pairs: Vec<(&str, Value)>) -> String {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()).to_string_compact()
}

/// The initial `/v1/specs` puts: every tenant stores the four
/// unperturbed paper specs.
pub fn initial_puts(bases: &[SystemSpec]) -> Vec<(&'static str, &'static str, String)> {
    let mut out = Vec::new();
    for lane in LANE_TENANTS {
        for tenant in lane {
            for (i, name) in PAPER_NAMES.iter().enumerate() {
                out.push((tenant, *name, put_body(tenant, name, &bases[i].to_dsl())));
            }
        }
    }
    out
}

/// The seeded open-loop schedule for `seconds` seconds, in due order
/// per lane: a fixed rate per lane with a seeded phase, a seeded
/// request mix, and one `GET /metrics` per second on the fresh lane.
pub fn schedule(seed: u64, seconds: f64, bases: &[SystemSpec]) -> Vec<Request> {
    let mut root = Rng::new(seed).fork(0x5E4E);
    let mut out = Vec::new();
    for (lane, rate) in LANE_RATES.iter().enumerate() {
        let mut rng = root.fork(lane as u64);
        let phase = rng.unit();
        let mut kinds = Deck::new(MIX_DECK.iter().flat_map(|&(k, n)| vec![k; n]).collect());
        let mut specs = Deck::new((0..PAPER_NAMES.len()).collect());
        let mut k = 0;
        loop {
            let due = (k as f64 + phase) / rate;
            if due >= seconds {
                break;
            }
            let kind = kinds.deal(&mut rng);
            let which = specs.deal(&mut rng);
            let tenant = LANE_TENANTS[lane][k % 2];
            out.push(request(due, lane, kind, tenant, which, &mut rng, bases));
            k += 1;
        }
    }
    let mut t = 0.5;
    while t < seconds {
        out.push(Request {
            due: t,
            lane: 1,
            kind: Kind::Scrape,
            tenant: "",
            spec_name: None,
            body: String::new(),
        });
        t += 1.0;
    }
    out.sort_by(|a, b| a.due.total_cmp(&b.due).then(a.lane.cmp(&b.lane)));
    out
}

/// Deals a seeded shuffle of its cards, reshuffling when it runs out,
/// so proportions hold exactly over every full deck.
struct Deck<T> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    fn new(cards: Vec<T>) -> Self {
        let next = cards.len();
        Deck { cards, next }
    }

    fn deal(&mut self, rng: &mut Rng) -> T {
        if self.next == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.index(i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

fn request(
    due: f64,
    lane: usize,
    kind: Kind,
    tenant: &'static str,
    which: usize,
    rng: &mut Rng,
    bases: &[SystemSpec],
) -> Request {
    let name = PAPER_NAMES[which];
    let deadline = Value::Int(LATENCY_LIMIT_MS as i64);
    let (spec_name, body) = match kind {
        Kind::Warm => {
            let body = obj(vec![
                ("tenant", Value::Str(tenant.into())),
                ("spec_name", Value::Str(name.into())),
                ("deadline_ms", deadline),
            ]);
            (Some(name), body)
        }
        Kind::Cold => {
            let body = obj(vec![
                ("tenant", Value::Str(tenant.into())),
                ("spec", Value::Str(perturbed_dsl(&bases[which], rng))),
                ("deadline_ms", deadline),
            ]);
            (None, body)
        }
        Kind::Sweep => {
            // Block paths are `/`-separated, so a top-level block whose
            // name holds a `/` (e10000's "I/O Board") has no address.
            let top: Vec<&BlockParams> = bases[which]
                .root
                .blocks
                .iter()
                .map(|b| &b.params)
                .filter(|p| !p.name.contains('/'))
                .collect();
            let block = top[rng.index(top.len())];
            let mtbf = block.mtbf.0;
            let body = obj(vec![
                ("tenant", Value::Str(tenant.into())),
                ("spec_name", Value::Str(name.into())),
                ("block", Value::Str(block.name.clone())),
                ("param", Value::Str("mtbf".into())),
                ("from", Value::Num(mtbf * rng.range(0.5, 0.9))),
                ("to", Value::Num(mtbf * rng.range(1.1, 2.0))),
                ("points", Value::Int(5)),
            ]);
            (Some(name), body)
        }
        Kind::Put => (Some(name), put_body(tenant, name, &perturbed_dsl(&bases[which], rng))),
        Kind::Lint | Kind::Scrape => {
            (None, obj(vec![("spec", Value::Str(perturbed_dsl(&bases[which], rng)))]))
        }
    };
    Request { due, lane, kind, tenant, spec_name, body }
}
