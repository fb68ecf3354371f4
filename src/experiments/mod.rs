//! The experiment harness: one module per table in EXPERIMENTS.md.
//!
//! The paper (a position paper) publishes no tables; these experiments
//! are the measurements its claims imply, as indexed in DESIGN.md. Each
//! `run(scale)` returns a rendered table; `cargo run --release --example
//! experiments -- <e1..e18|e9net|f1|all>` prints them. The paper's ratio
//! experiments (E2/F1, E3, E4, E8) and E12's lookup rows time their arms as
//! [`sysobs::paired`] arms over `Scale::rounds` rounds.

pub mod e10_dataplane;
pub mod e11_obs;
pub mod e12_cache;
pub mod e13_check;
pub mod e14_conntrack;
pub mod e15_churn;
pub mod e16_postmortem;
pub mod e17_lb;
pub mod e18_scenario;
pub mod e1_alloc;
pub mod e2_boxing;
pub mod e3_optimizer;
pub mod e4_ffi;
pub mod e5_verify;
pub mod e6_ipc;
pub mod e7_shared_state;
pub mod e8_repr;
pub mod e9_faults;

use bitc_core::bytecode::Bytecode;
use bitc_core::ffi::NativeRegistry;
use bitc_core::vm::{Rep, Vm, VmStats};
use std::fmt;
use std::time::Instant;
use sysrepr::packet::PacketBuilder;

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small sizes for tests and CI (seconds).
    Quick,
    /// Paper-scale sizes for EXPERIMENTS.md (minutes).
    Full,
}

impl Scale {
    /// Rounds of [`sysobs::paired`] for the experiments that compare wall-clock
    /// arms (E2/F1, E3, E4, E8, E12's lookup rows): one run per arm at
    /// quick scale, and an odd count at full scale so each arm reports a
    /// true median.
    #[must_use]
    pub(crate) fn rounds(self) -> usize {
        match self {
            Scale::Quick => 1,
            Scale::Full => 5,
        }
    }
}

/// One timed VM run of `bc` under representation `R`. Building the VM
/// stays outside the timed region; returns (ns, result, the run's counters).
///
/// # Panics
///
/// Panics if the VM cannot be built or the program traps (a bug in the
/// experiment, not an input condition).
#[must_use]
pub(crate) fn time_vm<R: Rep>(bc: &Bytecode, reg: &NativeRegistry) -> (u64, i64, VmStats) {
    let mut vm = Vm::<R>::new(bc, reg).expect("vm constructs");
    let t0 = Instant::now();
    let result = vm.run_int().expect("program runs");
    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (ns, result, vm.stats)
}

/// A rendered experiment table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (e.g. "E1 — allocator throughput and pauses").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (stringified by the experiment).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {}", self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {c:<width$} |", width = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{}|", "-".repeat(w + 2))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row)?;
        }
        for n in &self.notes {
            writeln!(f, "> {n}")?;
        }
        Ok(())
    }
}

/// Formats nanoseconds compactly.
#[must_use]
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Formats a rate (per second) compactly.
#[must_use]
pub fn fmt_rate(per_sec: f64) -> String {
    if per_sec >= 1e6 {
        format!("{:.2} M/s", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.1} K/s", per_sec / 1e3)
    } else {
        format!("{per_sec:.0} /s")
    }
}

/// A TCP frame of flow `f` in [`sysnet::ctbench::ct_table`]'s address plan:
/// src `172.16.(f>>8).f`, dst `(10 + f%3).(f>>8).f.1`, sport
/// `1024 + (f & 0x3FFF)`, dport 443. The caller sets flags and payload.
#[must_use]
#[allow(clippy::cast_possible_truncation)]
pub fn ct_flow_frame(f: usize) -> PacketBuilder {
    let (hi, lo) = ((f >> 8) as u8, f as u8);
    PacketBuilder::tcp()
        .src_ip([172, 16, hi, lo])
        .dst_ip([10 + (f % 3) as u8, hi, lo, 1])
        .src_port(1024 + (f as u16 & 0x3FFF))
        .dst_port(443)
}

/// Runs every experiment at the given scale, returning rendered tables.
#[must_use]
pub fn run_all(scale: Scale) -> Vec<Table> {
    vec![
        e1_alloc::run(scale),
        e2_boxing::run(scale),
        e3_optimizer::run(scale),
        e4_ffi::run(scale),
        e5_verify::run(scale),
        e6_ipc::run(scale),
        e7_shared_state::run(scale),
        e8_repr::run(scale),
        e9_faults::run(scale),
        e9_faults::run_net(scale),
        e10_dataplane::run(scale),
        e11_obs::run(scale),
        e12_cache::run(scale),
        e13_check::run(scale),
        e14_conntrack::run(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        t.note("a note");
        let s = t.to_string();
        assert!(s.contains("## demo"));
        assert!(s.contains("| longer | 22    |"));
        assert!(s.contains("> a note"));
    }

    #[test]
    fn formatters_pick_sane_units() {
        assert_eq!(fmt_ns(500), "500 ns");
        assert_eq!(fmt_ns(50_000), "50.0 µs");
        assert_eq!(fmt_ns(50_000_000), "50.0 ms");
        assert_eq!(fmt_rate(2_500_000.0), "2.50 M/s");
        assert_eq!(fmt_rate(2_500.0), "2.5 K/s");
        assert_eq!(fmt_rate(25.0), "25 /s");
    }
}
