//! `validate-threads`: the paper pipeline on the mps thread runtime with
//! real NPB numerics at class W on SystemG at 2.8 GHz — machine
//! calibration, Table-2 application calibration, Fig. 4 and Fig. 3
//! validation, and the Fig. 10 PowerPack profile. The configuration is
//! the paper's and fixed; the seed does not change it.

use std::sync::atomic::{AtomicUsize, Ordering};

use bench::{world_dori, world_g, ALPHA_CG, ALPHA_EP, ALPHA_FT, ALPHA_OTHER};
use isoee::calibrate::{app_params_from, distill, measured_machine_params, RunMeasurement};
use isoee::validate::validate_kernel;
use isoee::{MachineParams, ValidationSummary};
use mps::{Ctx, World};
use npb::Class;
use powerpack::Session;
use simcluster::EnergyMeter;

use crate::harness::Runner;
use crate::reference::Reference;

/// SystemG frequency of every SystemG world, Hz.
const F_HZ: f64 = 2.8e9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Ep,
    Ft,
    Cg,
    Is,
    Mg,
}

impl Kernel {
    fn name(self) -> &'static str {
        match self {
            Kernel::Ep => "EP",
            Kernel::Ft => "FT",
            Kernel::Cg => "CG",
            Kernel::Is => "IS",
            Kernel::Mg => "MG",
        }
    }

    fn alpha(self) -> f64 {
        match self {
            Kernel::Ep => ALPHA_EP,
            Kernel::Ft => ALPHA_FT,
            Kernel::Cg => ALPHA_CG,
            Kernel::Is | Kernel::Mg => ALPHA_OTHER,
        }
    }
}

/// NPB results that carry the kernel's own verification flag.
trait Verified {
    fn verified(&self) -> bool;
}

macro_rules! verified_by_field {
    ($($t:ty),*) => {$(
        impl Verified for $t {
            fn verified(&self) -> bool {
                self.verified
            }
        }
    )*};
}
verified_by_field!(
    npb::EpResult,
    npb::FtResult,
    npb::CgResult,
    npb::IsResult,
    npb::MgResult
);

/// Bind `$f` to `kernel`'s `bench` closure at `class` and evaluate `$body`
/// (the closures have distinct types, so the body is instantiated per
/// kernel).
macro_rules! with_kernel {
    ($kernel:expr, $class:expr, $f:ident => $body:expr) => {
        match $kernel {
            Kernel::Ep => {
                let $f = bench::ep_closure($class);
                $body
            }
            Kernel::Ft => {
                let $f = bench::ft_closure($class);
                $body
            }
            Kernel::Cg => {
                let $f = bench::cg_closure($class);
                $body
            }
            Kernel::Is => {
                let $f = bench::is_closure($class);
                $body
            }
            Kernel::Mg => {
                let $f = bench::mg_closure($class);
                $body
            }
        }
    };
}

/// Worlds, parallelism lists and reference values built before timing.
pub struct Setup {
    /// SystemG worlds of EP, FT and CG (Fig. 4 and Table 2).
    g: Vec<(Kernel, World)>,
    /// Dori worlds of the five Fig. 3 kernels.
    dori: Vec<(Kernel, World)>,
    /// Fig. 4 parallelism levels.
    fig4_ps: Vec<usize>,
    /// Table-2 parallel calibration levels (class W).
    cal_ps: Vec<usize>,
    /// The reference energies every validation energy is checked against.
    pub reference: Reference,
}

/// Build the worlds and load the reference table. `smoke` keeps p ≤ 4.
///
/// # Errors
/// A malformed reference table.
pub fn setup(smoke: bool) -> Result<Setup, String> {
    let g = [Kernel::Ep, Kernel::Ft, Kernel::Cg]
        .into_iter()
        .map(|k| (k, world_g(F_HZ, k.alpha())))
        .collect();
    let dori = [Kernel::Ep, Kernel::Ft, Kernel::Cg, Kernel::Is, Kernel::Mg]
        .into_iter()
        .map(|k| (k, world_dori(k.alpha())))
        .collect();
    let (fig4_ps, cal_ps) = if smoke {
        (vec![1, 2, 4], vec![4])
    } else {
        // p ≤ 32: above it the mps polling deadlock detector reports
        // false deadlocks on a 2-vCPU host (see README.md).
        (vec![1, 2, 4, 8, 16, 32], vec![4, 16])
    };
    Ok(Setup {
        g,
        dori,
        fig4_ps,
        cal_ps,
        reference: Reference::load()?,
    })
}

/// One pass over the pipeline's fixed op list. An op is one artifact of
/// the paper: a Table-2 row, a Fig. 4 panel, Fig. 3 or Fig. 10.
pub fn pass(rn: &mut Runner, s: &mut Setup) {
    // Table 2, one row per kernel: the machine calibration of its SystemG
    // world (as fig4 does), sequential S and W baselines, parallel W runs.
    let mut mach: Vec<(Kernel, MachineParams)> = Vec::new();
    for k in [Kernel::Ft, Kernel::Ep, Kernel::Cg] {
        let w = world_of(&s.g, k);
        let (cal_ps, reference) = (&s.cal_ps, &mut s.reference);
        let _ = rn.op(&format!("table2 {}", k.name()), |rn| {
            let m = rn.call("microbench.machine_params", || measured_machine_params(w));
            check_machine(&m)?;
            mach.push((k, m));
            let mut checks = Checks::default();
            let m = with_kernel!(k, Class::S, f => instrumented_run(rn, w, 1, f, false))?;
            checks
                .add(reference.check(&format!("cal.{}.S.p1.energy_j", k.name()), m.energy_j.raw()));
            let seq = with_kernel!(k, Class::W, f => instrumented_run(rn, w, 1, f, false))?;
            checks.add(reference.check(
                &format!("cal.{}.W.p1.energy_j", k.name()),
                seq.energy_j.raw(),
            ));
            for &p in cal_ps {
                let ft = k == Kernel::Ft;
                let par = with_kernel!(k, Class::W, f => instrumented_run(rn, w, p, f, ft))?;
                let app = app_params_from(&seq, &par);
                if !(app.messages.raw() > 0.0 && app.bytes.raw() > 0.0) {
                    return Err(format!("no communication in Appl at p={p}: {app:?}"));
                }
                checks.add(reference.check(
                    &format!("cal.{}.W.p{p}.energy_j", k.name()),
                    par.energy_j.raw(),
                ));
            }
            checks.result()
        });
    }

    // Fig. 4: EP/FT/CG on SystemG across p, one panel per kernel.
    for (k, w) in &s.g {
        let (k, ps, reference) = (*k, &s.fig4_ps, &mut s.reference);
        let mach = mach.iter().find(|(mk, _)| *mk == k).map(|(_, m)| m);
        let _ = rn.op(&format!("fig4 {}", k.name()), |rn| {
            let mach = mach.ok_or("no machine parameters")?;
            let summary = with_kernel!(k, Class::W, f => validate(rn, w, mach, k.name(), ps, f))?;
            check_summary(rn, reference, "fig4", &summary)
        });
    }

    // Fig. 3: the five kernels on Dori at p = 4, machine measured per world
    // as fig3 does.
    let (dori, reference) = (&s.dori, &mut s.reference);
    let _ = rn.op("fig3", |rn| {
        let mut checks = Checks::default();
        for (k, w) in dori {
            let k = *k;
            let mach = rn.call("microbench.machine_params", || measured_machine_params(w));
            checks.add(check_machine(&mach));
            let summary = with_kernel!(k, Class::W, f => validate(rn, w, &mach, k.name(), &[4], f));
            checks.add(summary.and_then(|summary| check_summary(rn, reference, "fig3", &summary)));
        }
        checks.result()
    });

    // Fig. 10: PowerPack profile of FT at p = 4.
    let w = world_of(&s.g, Kernel::Ft);
    let reference = &mut s.reference;
    let _ = rn.op("fig10 FT p=4", |rn| {
        let kernel = bench::ft_closure(Class::W);
        let report = rn
            .call("mps.par_run.ft", || mps::try_run(w, 4, &kernel))
            .map_err(|e| format!("try_run: {e}"))?;
        check_verified(report.ranks.iter().map(|r| r.result.verified))?;
        count_messages(rn, &report.total_counters(), true);
        let meter = EnergyMeter::new(w.cluster.node.clone(), w.f_hz);
        let session = Session::new(meter).with_sample_interval(report.span() / 400.0);
        let logs = report.logs();
        let profiled = rn
            .call("powerpack.profile", || session.profile(&logs).integrate())
            .map_err(|e| format!("integrate: {e:?}"))?;
        let markers: Vec<Vec<(String, f64)>> =
            report.ranks.iter().map(|r| r.markers.clone()).collect();
        let measured = rn.call("powerpack.measure", || session.measure(&logs, &markers));
        let mut checks = Checks::default();
        checks.add(reference.check("fig10.FT.p4.profile_j", profiled.raw()));
        checks.add(reference.check("fig10.FT.p4.measure_j", measured.energy.total().raw()));
        checks.result()
    });
}

/// The checks of one op: every check runs, and the op reports the first
/// failure.
#[derive(Default)]
struct Checks(Option<String>);

impl Checks {
    fn add(&mut self, r: Result<(), String>) {
        if let (None, Err(e)) = (&self.0, r) {
            self.0 = Some(e);
        }
    }

    fn result(self) -> Result<(), String> {
        self.0.map_or(Ok(()), Err)
    }
}

fn world_of(worlds: &[(Kernel, World)], k: Kernel) -> &World {
    &worlds
        .iter()
        .find(|(wk, _)| *wk == k)
        .expect("every calibrated kernel has a world")
        .1
}

fn check_machine(m: &MachineParams) -> Result<(), String> {
    let all = [m.tc.raw(), m.tm.raw(), m.ts.raw(), m.tw.raw()];
    if all.iter().all(|v| v.is_finite() && *v > 0.0) {
        Ok(())
    } else {
        Err(format!("non-positive machine parameter: {m:?}"))
    }
}

fn check_verified(flags: impl Iterator<Item = bool>) -> Result<(), String> {
    let bad = flags.filter(|ok| !ok).count();
    if bad == 0 {
        Ok(())
    } else {
        Err(format!("{bad} rank results not verified"))
    }
}

fn count_messages(rn: &mut Runner, c: &mps::Counters, ft: bool) {
    rn.count("mps.messages", c.messages);
    rn.count("mps.bytes", c.bytes);
    if ft {
        rn.count("mps.messages.ft", c.messages);
    }
}

/// One instrumented run: `mps::try_run`, then `isoee::calibrate::distill`.
fn instrumented_run<R: Verified + Send>(
    rn: &mut Runner,
    w: &World,
    p: usize,
    kernel: impl Fn(&mut Ctx) -> R + Sync,
    ft: bool,
) -> Result<RunMeasurement, String> {
    let key = match (p, ft) {
        (1, _) => "npb.seq_run",
        (_, true) => "mps.par_run.ft",
        _ => "mps.par_run",
    };
    let report = rn
        .call(key, || mps::try_run(w, p, &kernel))
        .map_err(|e| format!("try_run: {e}"))?;
    check_verified(report.ranks.iter().map(|r| r.result.verified()))?;
    let segments: usize = report.ranks.iter().map(|r| r.log.segments.len()).sum();
    let m = rn.call("simcluster.distill", || distill(w, &report));
    #[allow(clippy::cast_precision_loss)]
    rn.count("simcluster.segments", segments as f64);
    if p > 1 {
        count_messages(rn, &m.counters, ft);
    }
    Ok(m)
}

/// `validate_kernel` as fig3/fig4 call it, with each rank's NPB
/// verification flag counted on the side.
fn validate<R: Verified + Send>(
    rn: &mut Runner,
    w: &World,
    mach: &MachineParams,
    name: &str,
    ps: &[usize],
    kernel: impl Fn(&mut Ctx) -> R + Sync,
) -> Result<ValidationSummary, String> {
    let unverified = AtomicUsize::new(0);
    let checked = |ctx: &mut Ctx| {
        let r = kernel(ctx);
        if !r.verified() {
            unverified.fetch_add(1, Ordering::Relaxed);
        }
        r
    };
    let summary = rn.call("isoee.validate", || {
        validate_kernel(w, mach, name, ps, checked)
    });
    match unverified.into_inner() {
        0 => Ok(summary),
        n => Err(format!("{n} rank results not verified")),
    }
}

/// Check every point against the reference and count the model error.
fn check_summary(
    rn: &mut Runner,
    reference: &mut Reference,
    fig: &str,
    summary: &ValidationSummary,
) -> Result<(), String> {
    let mut checks = Checks::default();
    for pt in &summary.points {
        rn.count("isoee.abs_err_pct_sum", pt.error_pct().abs());
        rn.count("isoee.points", 1.0);
        let key = format!("{fig}.{}.p{}", summary.name, pt.p);
        checks.add(reference.check(&format!("{key}.predicted_j"), pt.predicted_j.raw()));
        checks.add(reference.check(&format!("{key}.measured_j"), pt.measured_j.raw()));
    }
    checks.result()
}
