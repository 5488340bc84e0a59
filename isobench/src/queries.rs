//! `model-queries`: a closed loop with one client sending seeded
//! capacity-planning queries to the analytical model — dense `(p, f)`
//! surfaces, `(p, n)` surfaces, iso-EE contours, single-point frequency
//! advice, and static power-cap verdicts on certificates built in set-up.
//!
//! The seed picks each query's workload size, EE target, cap and probe
//! cells, and the order of the stream. The stream's composition — how many queries of
//! each kind and each grid size — is fixed, so the work of a pass does not
//! depend on the seed.

use isoee::apps::{AppModel, CgModel, EpModel, FtModel};
use isoee::interval::MachBox;
use isoee::scaling::PoolConfig;
use isoee::{MachineParams, PowerCapVerdict, Surface};
use plan::ParametricCert;

use crate::harness::{median, Rng, Runner};

/// The contour's parallelism levels: `2^0 ..= 2^12`.
const CONTOUR_LG_MAX: u32 = 12;
/// The certificates cover the machines the stream plans for: p up to the
/// surfaces' largest.
const DOMAIN_MAX: u64 = 2048;
/// SystemG's DVFS states, for frequency advice.
const DVFS: [f64; 4] = bench::DVFS_G;

/// One size class of surface queries: `count` queries per pass over
/// columns `p = 1..=p_max` (powers of two for CG) by `rows` frequencies
/// or workloads, the application cycling through `apps`.
struct Class {
    p_max: usize,
    rows: usize,
    count: usize,
    apps: &'static [App],
}

const fn class(p_max: usize, rows: usize, count: usize, apps: &'static [App]) -> Class {
    Class {
        p_max,
        rows,
        count,
        apps,
    }
}

const ALL: &[App] = &App::ALL;
/// CG's columns are powers of two only, so its surfaces are never dense.
const DENSE: &[App] = &[App::Ft, App::Ep];

/// Queries per pass, by kind and size class. README.md gives the rules
/// that set the counts and the measured share of each kind.
struct Mix {
    pf: &'static [Class],
    pn: &'static [Class],
    contours: usize,
    best_frequency: usize,
    verdicts_per_cert: usize,
    size_div: usize,
}

/// 1092 queries: 240 `ee_surface_pf` (96 of them the 2048 × 64 grid of the
/// sweep bench), 72 `ee_surface_pn`, 96 contours, 660 `best_frequency` and
/// 24 cap verdicts.
const FULL: Mix = Mix {
    pf: &[
        class(2048, 64, 96, DENSE),
        class(1024, 64, 16, ALL),
        class(1024, 32, 16, ALL),
        class(1024, 16, 16, ALL),
        class(512, 64, 16, ALL),
        class(512, 32, 16, ALL),
        class(512, 16, 16, ALL),
        class(256, 64, 16, ALL),
        class(256, 32, 16, ALL),
        class(256, 16, 16, ALL),
    ],
    pn: &[
        class(256, 32, 12, ALL),
        class(256, 16, 12, ALL),
        class(128, 32, 12, ALL),
        class(128, 16, 12, ALL),
        class(64, 32, 12, ALL),
        class(64, 16, 12, ALL),
    ],
    contours: 96,
    best_frequency: 660,
    verdicts_per_cert: 8,
    size_div: 1,
};

const SMOKE: Mix = Mix {
    pf: &[class(2048, 64, 2, DENSE), class(512, 16, 3, ALL)],
    pn: &[class(256, 32, 3, ALL)],
    contours: 6,
    best_frequency: 24,
    verdicts_per_cert: 1,
    size_div: 8,
};

#[derive(Debug, Clone, Copy)]
enum App {
    Ft,
    Ep,
    Cg,
}

impl App {
    const ALL: [App; 3] = [App::Ft, App::Ep, App::Cg];

    /// The `i`-th application of a kind's queries.
    fn cycle(i: usize) -> App {
        App::ALL[i % App::ALL.len()]
    }

    fn name(self) -> &'static str {
        match self {
            App::Ft => "FT",
            App::Ep => "EP",
            App::Cg => "CG",
        }
    }

    /// The workload range of the paper's figures for this application.
    fn n_range(self) -> (f64, f64) {
        match self {
            App::Ft => (65_536.0, 67_108_864.0),
            App::Ep => (1_048_576.0, 67_108_864.0),
            App::Cg => (9_375.0, 300_000.0),
        }
    }

    /// The surface columns `p ≤ p_max` the model admits: every `p`, or
    /// powers of two for CG's 2-D process grid.
    fn columns(self, p_max: usize) -> Vec<usize> {
        match self {
            App::Cg => (0..usize::BITS)
                .map(|k| 1usize << k)
                .take_while(|&p| p <= p_max)
                .collect(),
            App::Ft | App::Ep => (1..=p_max).collect(),
        }
    }
}

#[derive(Debug, Clone)]
enum Query {
    SurfacePf {
        app: App,
        n: f64,
        ps: Vec<usize>,
        fs: Vec<f64>,
        probes: [(usize, usize); 2],
    },
    SurfacePn {
        app: App,
        ps: Vec<usize>,
        ns: Vec<f64>,
        probes: [(usize, usize); 2],
    },
    Contour {
        app: App,
        target: f64,
        n_lo: f64,
        n_hi: f64,
        probe: usize,
    },
    BestFrequency {
        app: App,
        n: f64,
        p: usize,
    },
    CapVerdict {
        cert: usize,
        cap_w: f64,
    },
}

/// Models, machine, certificates and the query stream built before timing.
pub struct Setup {
    mach: MachineParams,
    mbox: MachBox,
    ft: FtModel,
    ep: EpModel,
    cg: CgModel,
    certs: Vec<ParametricCert>,
    /// The stream: each query with its op name.
    queries: Vec<(String, Query)>,
}

impl Setup {
    fn model(&self, app: App) -> &dyn AppModel {
        match app {
            App::Ft => &self.ft,
            App::Ep => &self.ep,
            App::Cg => &self.cg,
        }
    }
}

/// Certify the plans and generate the seeded query stream.
///
/// # Errors
/// A plan that does not certify.
pub fn setup(rn: &mut Runner, seed: u64, smoke: bool) -> Result<Setup, String> {
    let mut certs = Vec::new();
    for (name, plan, domain) in crate::plans::npb_plans(DOMAIN_MAX) {
        let cert = rn.call("plan.certify", || plan::certify_plan(&plan, &domain));
        if !cert.certified {
            return Err(format!("{name} plan not certified: {:?}", cert.failure));
        }
        certs.push(cert);
    }
    let mix = if smoke { &SMOKE } else { &FULL };
    Ok(Setup {
        mach: MachineParams::system_g(2.8e9),
        mbox: crate::plans::system_g_box(),
        ft: FtModel::system_g(),
        ep: EpModel::system_g(),
        cg: CgModel::system_g(),
        queries: stream(seed, mix, &certs),
        certs,
    })
}

fn stream(seed: u64, mix: &Mix, certs: &[ParametricCert]) -> Vec<(String, Query)> {
    let mut rng = Rng::new(seed);
    let mut qs = Vec::new();
    for c in mix.pf {
        let (p_max, nf) = (c.p_max / mix.size_div, (c.rows / mix.size_div).max(2));
        for i in 0..c.count {
            let a = c.apps[i % c.apps.len()];
            let ps = a.columns(p_max);
            let (lo, hi) = a.n_range();
            #[allow(clippy::cast_precision_loss)]
            let fs = (0..nf)
                .map(|i| 1.6e9 + 1.2e9 * i as f64 / (nf - 1) as f64)
                .collect();
            let query = Query::SurfacePf {
                app: a,
                n: rng.log_uniform(lo, hi),
                fs,
                probes: [probe(&mut rng, nf, ps.len()), probe(&mut rng, nf, ps.len())],
                ps,
            };
            qs.push((format!("surface_pf {} {p_max}x{nf}", a.name()), query));
        }
    }
    for c in mix.pn {
        let (p_max, nn) = (c.p_max / mix.size_div, (c.rows / mix.size_div).max(2));
        for i in 0..c.count {
            let a = c.apps[i % c.apps.len()];
            let ps = a.columns(p_max);
            let (lo, hi) = a.n_range();
            #[allow(clippy::cast_precision_loss)]
            let ns = (0..nn)
                .map(|i| lo * (hi / lo).powf(i as f64 / (nn - 1) as f64))
                .collect();
            let query = Query::SurfacePn {
                app: a,
                ns,
                probes: [probe(&mut rng, nn, ps.len()), probe(&mut rng, nn, ps.len())],
                ps,
            };
            qs.push((format!("surface_pn {} {p_max}x{nn}", a.name()), query));
        }
    }
    for i in 0..mix.contours {
        let a = App::cycle(i);
        let (lo, hi) = a.n_range();
        let query = Query::Contour {
            app: a,
            target: 0.5 + 0.45 * rng.unit(),
            n_lo: lo,
            n_hi: hi * 64.0,
            probe: rng.below(CONTOUR_LG_MAX as usize + 1),
        };
        qs.push((format!("contour {}", a.name()), query));
    }
    for i in 0..mix.best_frequency {
        let a = App::cycle(i);
        let (lo, hi) = a.n_range();
        let ps = a.columns(1 << CONTOUR_LG_MAX);
        let query = Query::BestFrequency {
            app: a,
            n: rng.log_uniform(lo, hi),
            p: ps[rng.below(ps.len())],
        };
        qs.push((format!("best_frequency {}", a.name()), query));
    }
    for (i, cert) in certs.iter().enumerate() {
        for _ in 0..mix.verdicts_per_cert {
            let query = Query::CapVerdict {
                cert: i,
                cap_w: rng.log_uniform(1.0e3, 1.0e6),
            };
            qs.push((format!("cap_verdict {}", cert.plan), query));
        }
    }
    rng.shuffle(&mut qs);
    qs
}

fn probe(rng: &mut Rng, rows: usize, cols: usize) -> (usize, usize) {
    (rng.below(rows), rng.below(cols))
}

/// One pass over the query stream.
pub fn pass(rn: &mut Runner, s: &Setup) {
    for (name, q) in &s.queries {
        let _ = match q {
            Query::SurfacePf {
                app,
                n,
                ps,
                fs,
                probes,
            } => rn.op(name, |rn| surface_pf(rn, s, *app, *n, ps, fs, probes)),
            Query::SurfacePn {
                app,
                ps,
                ns,
                probes,
            } => rn.op(name, |rn| surface_pn(rn, s, *app, ps, ns, probes)),
            Query::Contour {
                app,
                target,
                n_lo,
                n_hi,
                probe,
            } => rn.op(name, |rn| {
                contour(rn, s, *app, *target, (*n_lo, *n_hi), *probe)
            }),
            Query::BestFrequency { app, n, p } => {
                rn.op(name, |rn| best_frequency(rn, s, *app, *n, *p))
            }
            Query::CapVerdict { cert, cap_w } => {
                rn.op(name, |rn| cap_verdict(rn, s, &s.certs[*cert], *cap_w))
            }
        };
    }
}

/// `EE` at one point through the scalar model, for bit-equality checks.
fn pointwise(s: &Setup, app: App, mach: &MachineParams, n: f64, p: usize) -> Result<f64, String> {
    isoee::ee(mach, &s.model(app).app_params(n, p), p).map_err(|e| format!("pointwise ee: {e}"))
}

fn check_shape(surface: &Surface, rows: usize, cols: usize) -> Result<(), String> {
    if surface.values.len() == rows && surface.values.iter().all(|r| r.len() == cols) {
        Ok(())
    } else {
        Err(format!("surface is not {rows} x {cols}"))
    }
}

fn check_bits(what: &str, got: f64, want: f64) -> Result<(), String> {
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "{what}: {got:?} is not bit-equal to pointwise {want:?}"
        ))
    }
}

fn surface_pf(
    rn: &mut Runner,
    s: &Setup,
    app: App,
    n: f64,
    ps: &[usize],
    fs: &[f64],
    probes: &[(usize, usize)],
) -> Result<(), String> {
    let surface = rn
        .call("isoee.surface_pf", || {
            isoee::ee_surface_pf(s.model(app), &s.mach, n, ps, fs)
        })
        .map_err(|e| format!("ee_surface_pf: {e}"))?;
    #[allow(clippy::cast_precision_loss)]
    rn.count("isoee.cells.pf", (fs.len() * ps.len()) as f64);
    check_shape(&surface, fs.len(), ps.len())?;
    for &(i, j) in probes {
        let want = pointwise(s, app, &s.mach.at_frequency(fs[i]), n, ps[j])?;
        check_bits("surface_pf cell", surface.at(i, j), want)?;
    }
    Ok(())
}

fn surface_pn(
    rn: &mut Runner,
    s: &Setup,
    app: App,
    ps: &[usize],
    ns: &[f64],
    probes: &[(usize, usize)],
) -> Result<(), String> {
    let surface = rn
        .call("isoee.surface_pn", || {
            isoee::ee_surface_pn(s.model(app), &s.mach, ps, ns)
        })
        .map_err(|e| format!("ee_surface_pn: {e}"))?;
    #[allow(clippy::cast_precision_loss)]
    rn.count("isoee.cells.pn", (ns.len() * ps.len()) as f64);
    check_shape(&surface, ns.len(), ps.len())?;
    let m = s.mach.at_frequency(s.mach.f_hz);
    for &(i, j) in probes {
        let want = pointwise(s, app, &m, ns[i], ps[j])?;
        check_bits("surface_pn cell", surface.at(i, j), want)?;
    }
    Ok(())
}

fn contour(
    rn: &mut Runner,
    s: &Setup,
    app: App,
    target: f64,
    (n_lo, n_hi): (f64, f64),
    probe: usize,
) -> Result<(), String> {
    let ps: Vec<usize> = (0..=CONTOUR_LG_MAX).map(|k| 1usize << k).collect();
    let ns = rn
        .call("isoee.contour", || {
            isoee::iso_ee_contour(s.model(app), &s.mach, &ps, target, n_lo, n_hi)
        })
        .map_err(|e| format!("iso_ee_contour: {e}"))?;
    if ns.len() != ps.len() {
        return Err(format!(
            "{} contour points for {} p values",
            ns.len(),
            ps.len()
        ));
    }
    let p = ps[probe];
    match ns[probe] {
        Some(n) if pointwise(s, app, &s.mach, n, p)? < target => {
            Err(format!("contour n={n} at p={p} misses EE target {target}"))
        }
        None if pointwise(s, app, &s.mach, n_hi, p)? >= target => Err(format!(
            "contour says p={p} cannot reach {target}, but n_hi does"
        )),
        _ => Ok(()),
    }
}

fn best_frequency(rn: &mut Runner, s: &Setup, app: App, n: f64, p: usize) -> Result<(), String> {
    let (f, ee) = rn
        .call("isoee.best_frequency", || {
            isoee::best_frequency(s.model(app), &s.mach, n, p, &DVFS)
        })
        .map_err(|e| format!("best_frequency: {e}"))?;
    if !DVFS.contains(&f) {
        return Err(format!("advised {f} Hz is not a DVFS state"));
    }
    check_bits(
        "best_frequency EE",
        ee,
        pointwise(s, app, &s.mach.at_frequency(f), n, p)?,
    )?;
    for g in DVFS {
        if pointwise(s, app, &s.mach.at_frequency(g), n, p)? > ee {
            return Err(format!("{g} Hz beats the advised {f} Hz"));
        }
    }
    Ok(())
}

fn cap_verdict(
    rn: &mut Runner,
    s: &Setup,
    cert: &ParametricCert,
    cap_w: f64,
) -> Result<(), String> {
    let v = rn.call("isoee.cap_verdict", || {
        isoee::power_cap_verdict(cert, &s.mbox, cap_w)
    });
    let in_domain = |p: u64| cert.domain.contains(p);
    let ok = match &v {
        PowerCapVerdict::AcceptedForAll { ps_checked } => {
            cert.domain.admissible().map(|ps| ps.len()) == Some(*ps_checked)
        }
        PowerCapVerdict::Rejected { from_p, to_p } => {
            in_domain(*from_p) && to_p.is_none_or(|t| in_domain(t) && t >= *from_p)
        }
        PowerCapVerdict::Undecided { at_p } => in_domain(*at_p),
        PowerCapVerdict::Uncertified => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{} under {cap_w} W: inconsistent verdict {v:?}",
            cert.plan
        ))
    }
}

/// The dense FT surface (p = 1..=2048 by 64 frequencies) through
/// `ee_surface_pf_with` sequentially and on the default pool: median
/// sequential time over median pooled time, five rounds each, alternating.
pub fn pool_speedup(s: &Setup) -> f64 {
    let ps: Vec<usize> = (1..=2048).collect();
    let fs: Vec<f64> = (0..64).map(|i| 1.6e9 + 1.875e7 * f64::from(i)).collect();
    let n = 1_048_576.0;
    let seq = PoolConfig::sequential();
    let time = |cfg: &PoolConfig| {
        let t0 = std::time::Instant::now();
        let out = isoee::ee_surface_pf_with(cfg, &s.ft, &s.mach, n, &ps, &fs);
        std::hint::black_box(out.is_ok());
        t0.elapsed().as_secs_f64()
    };
    let (mut t_seq, mut t_pool) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        t_seq.push(time(&seq));
        t_pool.push(time(pool::global()));
    }
    median(&t_seq) / median(&t_pool)
}
