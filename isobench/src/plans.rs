//! `plans-p256`: static and dynamic analysis of the NPB FT, EP and CG
//! `CommPlan`s at p = 256 — the whole-plan checker with its Eq. 13/15
//! cost bounds, for-all-p certification with static power-cap verdicts,
//! and a run on the simrt sequential event engine. The configuration is
//! fixed; the seed does not change it.

use isoee::interval::MachBox;
use isoee::{cost_bounds, power_cap_verdict, MachineParams, PowerCapVerdict};
use mps::World;
use npb::Class;
use plan::{analyze_plan, certify_plan, CommPlan, Domain, ParametricCert};
use simrt::{Detail, EngineConfig};

use crate::harness::Runner;

/// The world size analyzed and simulated.
const P: usize = 256;
/// World size of the self-test's smoke run.
const SMOKE_P: usize = 64;
/// Certification domains are capped here, as `analyze --plan-symbolic`
/// does.
const DOMAIN_MAX: u64 = 4096;
/// A cap every plan busts somewhere in its domain (System G's idle floor
/// alone exceeds it), and one no plan reaches.
const CAP_REJECTED_W: f64 = 2.0e3;
const CAP_ACCEPTED_W: f64 = 1.0e6;

/// The NPB class the plans are built at.
const CLASS: Class = Class::S;

/// The three plans with their declared domains, capped at `domain_max`.
pub fn npb_plans(domain_max: u64) -> Vec<(&'static str, CommPlan, Domain)> {
    vec![
        (
            "FT",
            npb::ft_plan(&npb::FtConfig::class(CLASS)),
            npb::ft_domain().with_max(domain_max),
        ),
        (
            "EP",
            npb::ep_plan(&npb::EpConfig::class(CLASS)),
            npb::ep_domain().with_max(domain_max),
        ),
        (
            "CG",
            npb::cg_plan(&npb::CgConfig::class(CLASS)),
            npb::cg_domain().with_max(domain_max),
        ),
    ]
}

/// System G at 2.8 GHz as a point machine box, as `analyze` uses it.
pub fn system_g_box() -> MachBox {
    MachBox::from_params(&MachineParams::system_g(2.8e9))
}

/// Plans, machine and engine configuration built before timing.
pub struct Setup {
    plans: Vec<(&'static str, CommPlan, Domain)>,
    world: World,
    mach: MachBox,
    engine: EngineConfig,
    p: usize,
}

/// Build the plans and the world. `smoke` runs at p = 64.
pub fn setup(smoke: bool) -> Setup {
    Setup {
        plans: npb_plans(DOMAIN_MAX),
        world: World::new(simcluster::system_g(), 2.8e9),
        mach: system_g_box(),
        engine: EngineConfig::default().with_detail(Detail::Off),
        p: if smoke { SMOKE_P } else { P },
    }
}

/// One pass: per plan, a static op (analyze + cost bounds, certify, two
/// cap verdicts) and a dynamic op (a simrt run metered by
/// `RunReport::energy`).
pub fn pass(rn: &mut Runner, s: &Setup) {
    let p = s.p;
    for (name, plan, domain) in &s.plans {
        let totals = rn.op(&format!("static {name} p={p}"), |rn| {
            let totals = analyze(rn, plan, p, &s.mach);
            let caps = certify(rn, plan, domain).and_then(|cert| check_caps(rn, &cert, &s.mach));
            let totals = totals?;
            caps.map(|()| totals)
        });

        let _ = rn.op(&format!("simrt {name} p={p}"), |rn| {
            let out = rn
                .call("simrt.run", || {
                    simrt::try_run_plan_with(&s.engine, &s.world, p, plan)
                })
                .map_err(|e| format!("simrt: {e}"))?;
            #[allow(clippy::cast_precision_loss)]
            {
                rn.count("simrt.steps", out.stats.steps as f64);
                rn.count("simrt.sends", out.stats.sends as f64);
                rn.count("simrt.wakes", out.stats.wakes as f64);
            }
            let energy = rn.call("simcluster.energy", || out.report.energy(&s.world));
            let joules = energy.total().raw();
            if !(joules.is_finite() && joules > 0.0) {
                return Err(format!("metered energy {joules} J"));
            }
            let (messages, bytes) = totals.ok_or("no static analysis to compare with")?;
            let c = out.report.total_counters();
            #[allow(clippy::cast_precision_loss)]
            if c.messages != messages as f64 || c.bytes != bytes as f64 {
                return Err(format!(
                    "simrt sent {} msgs / {} B, analyze_plan counted {messages} / {bytes}",
                    c.messages, c.bytes
                ));
            }
            Ok(())
        });
    }
}

/// `analyze_plan` with its cost bounds: the static message and byte totals.
fn analyze(
    rn: &mut Runner,
    plan: &CommPlan,
    p: usize,
    mach: &MachBox,
) -> Result<(u64, u64), String> {
    let a = rn.call("plan.analyze", || analyze_plan(plan, p));
    #[allow(clippy::cast_precision_loss)]
    rn.count("plan.analyze_steps", a.steps as f64);
    if !a.deadlock_free() {
        return Err(format!("not certified deadlock-free: {:?}", a.findings));
    }
    let cost = rn.call("isoee.cost_bounds", || cost_bounds(&a, mach));
    if !cost.enclosure.baseline_certified() {
        return Err("cost enclosure failed baseline certification".into());
    }
    Ok((a.total.messages, a.total.bytes))
}

fn certify(rn: &mut Runner, plan: &CommPlan, domain: &Domain) -> Result<ParametricCert, String> {
    let cert = rn.call("plan.certify", || certify_plan(plan, domain));
    if cert.certified {
        Ok(cert)
    } else {
        Err(format!("not certified: {:?}", cert.failure))
    }
}

/// The 2 kW cap must be rejected and the 1 MW cap accepted.
fn check_caps(rn: &mut Runner, cert: &ParametricCert, mach: &MachBox) -> Result<(), String> {
    let low = rn.call("isoee.cap_verdict", || {
        power_cap_verdict(cert, mach, CAP_REJECTED_W)
    });
    if !matches!(low, PowerCapVerdict::Rejected { .. }) {
        return Err(format!(
            "{CAP_REJECTED_W} W cap: expected a rejection, got {low:?}"
        ));
    }
    let high = rn.call("isoee.cap_verdict", || {
        power_cap_verdict(cert, mach, CAP_ACCEPTED_W)
    });
    if !high.accepted() {
        return Err(format!(
            "{CAP_ACCEPTED_W} W cap: expected acceptance, got {high:?}"
        ));
    }
    Ok(())
}
