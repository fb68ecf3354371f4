//! Population fuzzing over the total parsers and the BitC VM.
//!
//! The fuzzer keeps a persistent *population* of byte-string inputs,
//! mutates members with a seeded SplitMix64 stream, and selects children
//! that exhibit a **novel outcome class** — a new combination of parse
//! stage reached, error discriminant, drop classification, NAT-rewrite
//! verdict, or VM trap class. That anomaly-signal selection is the cheap
//! stand-in for branch coverage the container can't collect, and it is
//! enough to walk the input space from well-formed seeds out to the
//! malformed frontier where bugs live.
//!
//! Two oracles run on every execution:
//!
//! * **no panic** — the `sysrepr` parsers and the VM are *total*: any
//!   panic is a bug. The one deliberate exception is
//!   [`Ipv4View::parse_trusting_lengths`], the seeded C-style parser that
//!   trusts IHL/total-length, which the `Packet` target drives exactly to
//!   prove the fuzzer finds it;
//! * **NAT checksum differential** — a frame whose transport checksum
//!   verifies before `dnat`/`snat` must verify after (RFC 1624 fixups are
//!   claimed exact); a violation is reported as a crash artifact.
//!
//! Crashes deduplicate by message, shrink through
//! [`sysfault::shrink::minimize_bytes`], and carry an embedded repro
//! command; the campaign runner pins them as regression scenarios via
//! [`crate::library::pin_crash`].

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use sysfault::shrink::minimize_bytes;
use sysfault::SplitMix64;
use sysobs::{fnv1a, fnv_fold as fold, FNV_OFFSET};
use sysrepr::dns;
use sysrepr::packet::{
    EthernetView, Ipv4View, PacketBuilder, ETHERTYPE_IPV4, IPPROTO_TCP, IPPROTO_UDP,
};

/// A uniform draw in `0..n` (`0` when `n` is 0) from the mutation stream.
#[allow(clippy::cast_possible_truncation)]
fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n.max(1) as u64) as usize
}

/// What the fuzzer drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzTarget {
    /// Ethernet/IPv4/transport views, the trusting parser, and the NAT
    /// rewrite differential.
    Packet,
    /// The DNS wire-format parser (compression pointers and all).
    Dns,
    /// BitC source through the parser, compiler, and fueled VM.
    Bitc,
}

impl FuzzTarget {
    /// Stable lowercase name (JSON rows, crash file names).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FuzzTarget::Packet => "packet",
            FuzzTarget::Dns => "dns",
            FuzzTarget::Bitc => "bitc",
        }
    }
}

/// One fuzzing run's budget and stream.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// What to drive.
    pub target: FuzzTarget,
    /// Mutation-stream seed.
    pub seed: u64,
    /// Children to generate and execute.
    pub iterations: usize,
    /// Population ceiling (novel children evict a random resident).
    pub population_cap: usize,
    /// Input length ceiling.
    pub max_len: usize,
}

impl FuzzConfig {
    /// A CI-budget run: small but reliably enough to rediscover the
    /// seeded trusting-parser bug from well-formed seeds.
    #[must_use]
    pub fn quick(target: FuzzTarget) -> Self {
        FuzzConfig {
            target,
            seed: 0x5EED,
            iterations: 3_000,
            population_cap: 256,
            max_len: 192,
        }
    }
}

/// A deduplicated, shrunk crash.
#[derive(Debug, Clone)]
pub struct CrashArtifact {
    /// Which target crashed.
    pub target: FuzzTarget,
    /// The input as found.
    pub input: Vec<u8>,
    /// The input after [`minimize_bytes`].
    pub minimized: Vec<u8>,
    /// The panic (or differential-violation) message.
    pub message: String,
}

impl CrashArtifact {
    /// Stable artifact file name: `CRASH_<target>_<hash>.json`. The hash
    /// covers the *crash class* — the message with digit runs collapsed —
    /// so every input tripping the same bug lands at the same path
    /// ("range end index 240..." and "range end index 87..." are one bug).
    #[must_use]
    pub fn file_name(&self) -> String {
        format!(
            "CRASH_{}_{:08x}.json",
            self.target.name(),
            fnv1a(crash_class(&self.message).as_bytes()) as u32
        )
    }

    /// Renders the artifact with the repro command embedded.
    #[must_use]
    pub fn to_json(&self) -> String {
        let hex = |b: &[u8]| {
            b.iter().fold(String::new(), |mut s, x| {
                let _ = write!(s, "{x:02x}");
                s
            })
        };
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"target\": \"{}\",", self.target.name());
        let _ = writeln!(s, "  \"message\": \"{}\",", self.message.escape_default());
        let _ = writeln!(s, "  \"input_len\": {},", self.input.len());
        let _ = writeln!(s, "  \"minimized_len\": {},", self.minimized.len());
        let _ = writeln!(s, "  \"input_hex\": \"{}\",", hex(&self.input));
        let _ = writeln!(s, "  \"minimized_hex\": \"{}\",", hex(&self.minimized));
        let _ = writeln!(
            s,
            "  \"repro\": \"cargo run --release --example scenario_bench -- --repro {}\"",
            self.file_name()
        );
        s.push_str("}\n");
        s
    }

    /// Parses an artifact back out of its JSON (the `--repro` path). Only
    /// the fields replay needs are read.
    #[must_use]
    pub fn from_json(json: &str) -> Option<CrashArtifact> {
        let field = |key: &str| -> Option<String> {
            let pat = format!("\"{key}\": \"");
            let start = json.find(&pat)? + pat.len();
            let end = json[start..].find('"')? + start;
            Some(json[start..end].to_owned())
        };
        let unhex = |s: &str| -> Option<Vec<u8>> {
            if !s.len().is_multiple_of(2) {
                return None;
            }
            (0..s.len() / 2)
                .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok())
                .collect()
        };
        let target = match field("target")?.as_str() {
            "packet" => FuzzTarget::Packet,
            "dns" => FuzzTarget::Dns,
            "bitc" => FuzzTarget::Bitc,
            _ => return None,
        };
        Some(CrashArtifact {
            target,
            input: unhex(&field("input_hex")?)?,
            minimized: unhex(&field("minimized_hex")?)?,
            message: field("message")?,
        })
    }
}

/// What one fuzzing run produced.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The target.
    pub target: FuzzTarget,
    /// Children generated.
    pub iterations: usize,
    /// Total executions (seeds + children + shrink probes).
    pub executions: u64,
    /// Final population size.
    pub population: usize,
    /// Distinct outcome classes discovered.
    pub distinct_features: usize,
    /// Deduplicated, shrunk crashes.
    pub crashes: Vec<CrashArtifact>,
    /// Did the run rediscover the seeded trusting-parser bug? (Only the
    /// `Packet` target can; elsewhere any crash at all sets it.)
    pub seeded_bug_found: bool,
}

/// Executes one input: `(outcome-class feature, crash message if any)`.
fn execute(target: FuzzTarget, input: &[u8]) -> (u64, Option<String>) {
    match target {
        FuzzTarget::Packet => execute_packet(input),
        FuzzTarget::Dns => execute_dns(input),
        FuzzTarget::Bitc => execute_bitc(input),
    }
}

/// Replays an input against its target and returns the crash message, if
/// it still crashes — the `--repro` entry point.
#[must_use]
pub fn replay(target: FuzzTarget, input: &[u8]) -> Option<String> {
    let _guard = hush_panics();
    execute(target, input).1
}

/// Class code for a parse error, stable across runs.
fn err_class(e: &sysrepr::ReprError) -> u64 {
    // Discriminant plus the coarse shape; field *values* stay out so the
    // feature space doesn't explode on don't-care bytes.
    match e {
        sysrepr::ReprError::Truncated { needed, got } => {
            fold(fold(1, u64::from(*needed > 64)), u64::from(*got == 0))
        }
        sysrepr::ReprError::InvalidField { field, .. } => fold(2, fnv1a(field.as_bytes())),
        _ => {
            let name = format!("{e:?}");
            fold(3, fnv1a(&name.as_bytes()[..name.len().min(4)]))
        }
    }
}

/// The packet target: total views classify, the trusting parser is the
/// crash oracle, and NAT rewrites run the checksum differential.
#[allow(clippy::cast_possible_truncation)]
fn execute_packet(input: &[u8]) -> (u64, Option<String>) {
    // Crash oracle: the seeded C-style parser, driven the way a C stack
    // would use it — parse, then touch every derived slice.
    let crash = catch_unwind(AssertUnwindSafe(|| {
        if let Ok(eth) = EthernetView::parse(input) {
            if eth.ethertype() == ETHERTYPE_IPV4 {
                if let Ok(ip) = Ipv4View::parse_trusting_lengths(eth.payload()) {
                    let mut acc = u64::from(ip.src()[0]) + u64::from(ip.dst()[3]);
                    acc += ip.options().len() as u64;
                    acc += ip.payload().len() as u64;
                    std::hint::black_box(acc);
                }
            }
        }
    }))
    .err()
    .map(|e| panic_message(&*e));

    // Outcome class from the total path.
    let mut h = FNV_OFFSET;
    match EthernetView::parse(input) {
        Err(e) => h = fold(fold(h, 10), err_class(&e)),
        Ok(eth) => {
            h = fold(h, 11);
            h = fold(h, u64::from(eth.ethertype() == ETHERTYPE_IPV4));
            match Ipv4View::parse(eth.payload()) {
                Err(e) => h = fold(fold(h, 12), err_class(&e)),
                Ok(ip) => {
                    h = fold(h, 13);
                    h = fold(h, u64::from(ip.protocol()));
                    h = fold(h, u64::from(ip.header_len() > 20));
                    h = fold(h, u64::from(!ip.options().is_empty()));
                    h = fold(h, u64::from(ip.payload().is_empty()));
                    h = fold(h, u64::from(ip.verify_checksum().is_ok()));
                }
            }
        }
    }

    // NAT differential: rewrite a copy and demand checksum preservation.
    let mut copy = input.to_vec();
    let (verdict, differential) = nat_differential(&mut copy);
    h = fold(h, verdict);

    (h, crash.or(differential))
}

/// Runs `dnat` then `snat` on a mutable copy. Returns the outcome class
/// and, when the checksum-preservation contract breaks, a crash message.
fn nat_differential(frame: &mut [u8]) -> (u64, Option<String>) {
    let valid_before = EthernetView::parse(frame)
        .ok()
        .and_then(|e| Ipv4View::parse(e.payload()).ok())
        .is_some_and(|ip| {
            matches!(ip.protocol(), IPPROTO_TCP | IPPROTO_UDP) && ip.verify_checksum().is_ok()
        });
    let Ok(eth) = sysrepr::packet::EthernetViewMut::parse(frame) else {
        return (20, None);
    };
    let Ok(mut ip) = eth.ipv4_mut() else {
        return (21, None);
    };
    let d = ip.dnat([192, 0, 2, 9], 4242);
    let s = ip.snat([198, 51, 100, 7], 2424);
    let verdict = fold(
        fold(22, d.as_ref().map_or_else(err_class, |()| 0)),
        s.as_ref().map_or_else(err_class, |()| 0),
    );
    if valid_before && (d.is_ok() || s.is_ok()) {
        let still_valid = EthernetView::parse(frame)
            .ok()
            .and_then(|e| Ipv4View::parse(e.payload()).ok())
            .is_some_and(|ip| ip.verify_checksum().is_ok());
        if !still_valid {
            return (
                verdict,
                Some("nat rewrite broke a verifying IPv4 header checksum".to_owned()),
            );
        }
    }
    (verdict, None)
}

/// The DNS target: `parse_message` plus `decode_name` at offset 12.
fn execute_dns(input: &[u8]) -> (u64, Option<String>) {
    let crash = catch_unwind(AssertUnwindSafe(|| {
        let mut h = FNV_OFFSET;
        match dns::parse_message(input) {
            Err(e) => h = fold(fold(h, 30), err_class(&e)),
            Ok(m) => {
                h = fold(h, 31);
                h = fold(h, m.questions.len() as u64);
                h = fold(h, m.answers.len() as u64);
                h = fold(h, u64::from(m.header.is_response));
                h = fold(h, u64::from(m.header.rcode));
            }
        }
        match dns::decode_name(input, 12) {
            Err(e) => h = fold(fold(h, 32), err_class(&e)),
            Ok((name, end)) => {
                h = fold(h, 33);
                h = fold(h, name.split('.').count() as u64);
                h = fold(h, u64::from(end > 64));
            }
        }
        h
    }));
    match crash {
        Ok(h) => (h, None),
        Err(e) => (fold(FNV_OFFSET, 39), Some(panic_message(&*e))),
    }
}

/// The BitC target: bytes as source, through the fueled VM.
fn execute_bitc(input: &[u8]) -> (u64, Option<String>) {
    let src: String = input
        .iter()
        .map(|&b| {
            if b.is_ascii_graphic() || b == b' ' {
                b as char
            } else {
                ' '
            }
        })
        .collect();
    let crash = catch_unwind(AssertUnwindSafe(|| {
        match bitc_core::vm::run_fueled(&src, 20_000) {
            Ok(v) => fold(fold(FNV_OFFSET, 40), u64::from(v == 0)),
            Err(e) => {
                let msg = e.to_string();
                let head: String = msg.chars().take(24).collect();
                fold(fold(FNV_OFFSET, 41), fnv1a(head.as_bytes()))
            }
        }
    }));
    match crash {
        Ok(h) => (h, None),
        Err(e) => (fold(FNV_OFFSET, 49), Some(panic_message(&*e))),
    }
}

/// Collapses digit runs to `#` so messages that differ only in offsets
/// ("range end index 240 out of range for slice of length 46") dedupe as
/// one bug class.
fn crash_class(message: &str) -> String {
    let mut out = String::with_capacity(message.len());
    let mut in_digits = false;
    for c in message.chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push('#');
                in_digits = true;
            }
        } else {
            in_digits = false;
            out.push(c);
        }
    }
    out
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<&str>().map_or_else(
        || {
            e.downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "opaque panic payload".to_owned())
        },
        |s| (*s).to_owned(),
    )
}

/// Seed corpus: well-formed members of each format, so the fuzzer starts
/// from structure and mutates toward the frontier.
#[must_use]
pub fn seed_corpus(target: FuzzTarget) -> Vec<Vec<u8>> {
    match target {
        FuzzTarget::Packet => packet_seed_corpus(),
        FuzzTarget::Dns => vec![
            dns::build_query(0x1234, "example.com", 1),
            dns::build_query(1, "a.b.c.d.e", 28),
            dns::build_query(0xFFFF, "x", 255),
        ],
        FuzzTarget::Bitc => [
            "(+ 1 2)",
            "(define f (lambda (n) (+ n 1))) (f 41)",
            "(if (< 1 2) 10 20)",
            "((lambda (x) (* x x)) 12)",
        ]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect(),
    }
}

/// The packet seed corpus — well-formed TCP/UDP frames in the shapes the
/// adversarial NAT suite also uses as fixtures.
#[must_use]
pub fn packet_seed_corpus() -> Vec<Vec<u8>> {
    vec![
        PacketBuilder::tcp()
            .src_ip([10, 9, 0, 1])
            .dst_ip([10, 200, 0, 1])
            .src_port(1024)
            .dst_port(80)
            .compute_transport_checksum()
            .build(),
        PacketBuilder::udp()
            .src_ip([10, 9, 0, 2])
            .dst_ip([10, 200, 0, 1])
            .src_port(5353)
            .dst_port(53)
            .payload(&[0xAB; 16])
            .compute_transport_checksum()
            .build(),
        PacketBuilder::tcp()
            .src_ip([192, 0, 2, 1])
            .dst_ip([198, 51, 100, 1])
            .payload(&[0x55; 40])
            .build(),
    ]
}

/// One seeded mutation.
fn mutate(rng: &mut SplitMix64, parent: &[u8], population: &[Vec<u8>], max_len: usize) -> Vec<u8> {
    let mut child = parent.to_vec();
    let ops = 1 + below(rng, 3);
    for _ in 0..ops {
        match below(rng, 8) {
            // Bit flip.
            0 if !child.is_empty() => {
                let i = below(rng, child.len());
                child[i] ^= 1 << below(rng, 8);
            }
            // Interesting byte.
            1 if !child.is_empty() => {
                let i = below(rng, child.len());
                child[i] = [0x00, 0xFF, 0x7F, 0x80, 0x01, 0x45, 0x46, 0x06][below(rng, 8)];
            }
            // Random byte.
            #[allow(clippy::cast_possible_truncation)]
            2 if !child.is_empty() => {
                let i = below(rng, child.len());
                child[i] = rng.next_u64() as u8;
            }
            // Truncate.
            3 if child.len() > 1 => {
                let n = 1 + below(rng, child.len() - 1);
                child.truncate(n);
            }
            // Extend.
            #[allow(clippy::cast_possible_truncation)]
            4 => {
                let n = 1 + below(rng, 16);
                for _ in 0..n {
                    if child.len() >= max_len {
                        break;
                    }
                    child.push(rng.next_u64() as u8);
                }
            }
            // Chunk duplication (length-field confusion food).
            5 if !child.is_empty() => {
                let start = below(rng, child.len());
                let len = (1 + below(rng, 8)).min(child.len() - start);
                let chunk: Vec<u8> = child[start..start + len].to_vec();
                let at = below(rng, child.len() + 1);
                for (k, b) in chunk.into_iter().enumerate() {
                    if child.len() >= max_len {
                        break;
                    }
                    child.insert((at + k).min(child.len()), b);
                }
            }
            // Splice with another resident.
            6 if !population.is_empty() => {
                let other = &population[below(rng, population.len())];
                if !other.is_empty() && !child.is_empty() {
                    let cut_a = below(rng, child.len());
                    let cut_b = below(rng, other.len());
                    child.truncate(cut_a);
                    child.extend_from_slice(&other[cut_b..]);
                }
            }
            // 16-bit length-ish field patch at a word boundary.
            #[allow(clippy::cast_possible_truncation)]
            _ if child.len() >= 2 => {
                let i = below(rng, child.len() - 1);
                let v = (rng.next_u64() as u16).to_be_bytes();
                child[i] = v[0];
                child[i + 1] = v[1];
            }
            _ => {}
        }
    }
    child.truncate(max_len);
    if child.is_empty() {
        child.push(0);
    }
    child
}

/// Serializes fuzz runs (the panic hook is process-global).
static FUZZ_LOCK: Mutex<()> = Mutex::new(());

type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

struct HushGuard {
    _g: std::sync::MutexGuard<'static, ()>,
    prev: Option<PanicHook>,
}

impl Drop for HushGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            std::panic::set_hook(prev);
        }
    }
}

/// Silences the default panic printer while expected crashes fly, holding
/// the fuzz lock so concurrent tests don't fight over the global hook.
fn hush_panics() -> HushGuard {
    let g = FUZZ_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    HushGuard {
        _g: g,
        prev: Some(prev),
    }
}

/// Runs one population-fuzzing campaign.
#[must_use]
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let _hush = hush_panics();
    let mut rng = SplitMix64::new(cfg.seed ^ fnv1a(cfg.target.name().as_bytes()));
    let mut executions = 0u64;
    let mut features = BTreeSet::new();
    let mut population = Vec::new();
    let mut crashes: Vec<CrashArtifact> = Vec::new();
    let mut seen_messages = BTreeSet::new();

    let admit = |input: Vec<u8>,
                 executions: &mut u64,
                 features: &mut BTreeSet<u64>,
                 population: &mut Vec<Vec<u8>>,
                 crashes: &mut Vec<CrashArtifact>,
                 seen: &mut BTreeSet<String>,
                 rng: &mut SplitMix64| {
        *executions += 1;
        let (feature, crash) = execute(cfg.target, &input);
        if let Some(message) = crash {
            if seen.insert(crash_class(&message)) {
                let mut probes = 0u64;
                let minimized = minimize_bytes(&input, |b| {
                    probes += 1;
                    execute(cfg.target, b).1.is_some()
                });
                *executions += probes;
                crashes.push(CrashArtifact {
                    target: cfg.target,
                    input,
                    minimized,
                    message,
                });
            }
        } else if features.insert(feature) {
            if population.len() >= cfg.population_cap {
                let victim = below(rng, population.len());
                population.swap_remove(victim);
            }
            population.push(input);
        }
    };

    for seed in seed_corpus(cfg.target) {
        admit(
            seed,
            &mut executions,
            &mut features,
            &mut population,
            &mut crashes,
            &mut seen_messages,
            &mut rng,
        );
    }
    for _ in 0..cfg.iterations {
        let parent = population[below(&mut rng, population.len())].clone();
        let child = mutate(&mut rng, &parent, &population, cfg.max_len);
        admit(
            child,
            &mut executions,
            &mut features,
            &mut population,
            &mut crashes,
            &mut seen_messages,
            &mut rng,
        );
    }

    FuzzReport {
        target: cfg.target,
        iterations: cfg.iterations,
        executions,
        population: population.len(),
        distinct_features: features.len(),
        seeded_bug_found: !crashes.is_empty(),
        crashes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_fuzzer_rediscovers_the_seeded_trusting_parser_bug() {
        let report = run_fuzz(&FuzzConfig::quick(FuzzTarget::Packet));
        assert!(
            report.seeded_bug_found,
            "the trusting parser must fall within the CI budget \
             ({} features, {} execs)",
            report.distinct_features, report.executions
        );
        let crash = &report.crashes[0];
        // The payload must be the real panic text, not the Box-as-Any
        // coercion trap ("opaque panic payload") — dedupe keys on it.
        assert!(
            crash.message.contains("out of range"),
            "crash message lost its payload: {:?}",
            crash.message
        );
        assert!(!crash.minimized.is_empty());
        assert!(
            crash.minimized.len() <= crash.input.len(),
            "shrinking must not grow the input"
        );
        // The shrunk input must still reproduce.
        assert!(replay(FuzzTarget::Packet, &crash.minimized).is_some());
    }

    #[test]
    fn crash_artifacts_of_one_bug_class_share_a_path() {
        let a = CrashArtifact {
            target: FuzzTarget::Packet,
            input: vec![1],
            minimized: vec![1],
            message: "range end index 240 out of range for slice of length 46".to_owned(),
        };
        let b = CrashArtifact {
            message: "range end index 87 out of range for slice of length 55".to_owned(),
            ..a.clone()
        };
        assert_eq!(a.file_name(), b.file_name());
        assert_ne!(
            a.file_name(),
            CrashArtifact {
                message: "attempt to add with overflow".to_owned(),
                ..a.clone()
            }
            .file_name()
        );
    }

    #[test]
    fn fuzz_runs_are_deterministic_in_the_seed() {
        let a = run_fuzz(&FuzzConfig {
            iterations: 500,
            ..FuzzConfig::quick(FuzzTarget::Packet)
        });
        let b = run_fuzz(&FuzzConfig {
            iterations: 500,
            ..FuzzConfig::quick(FuzzTarget::Packet)
        });
        assert_eq!(a.executions, b.executions);
        assert_eq!(a.distinct_features, b.distinct_features);
        assert_eq!(a.crashes.len(), b.crashes.len());
    }

    #[test]
    fn dns_and_bitc_targets_stay_total_under_fuzzing() {
        for target in [FuzzTarget::Dns, FuzzTarget::Bitc] {
            let report = run_fuzz(&FuzzConfig {
                iterations: 800,
                ..FuzzConfig::quick(target)
            });
            assert!(
                report.crashes.is_empty(),
                "{:?} must be total, crashed: {:?}",
                target,
                report.crashes.first().map(|c| &c.message)
            );
            assert!(
                report.distinct_features > 4,
                "{target:?} exploration stalled at {} classes",
                report.distinct_features
            );
        }
    }

    #[test]
    fn crash_artifacts_round_trip_through_json() {
        let artifact = CrashArtifact {
            target: FuzzTarget::Packet,
            input: vec![0xDE, 0xAD, 0xBE, 0xEF],
            minimized: vec![0xDE],
            message: "index out of bounds: the len is 20".to_owned(),
        };
        let json = artifact.to_json();
        assert!(json.contains("--repro"));
        assert!(json.contains(&artifact.file_name()));
        let back = CrashArtifact::from_json(&json).expect("round trip");
        assert_eq!(back.input, artifact.input);
        assert_eq!(back.minimized, artifact.minimized);
        assert_eq!(back.target, artifact.target);
    }
}
