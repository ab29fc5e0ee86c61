//! E17 — §V fleet scheduling: a verifier farm attesting a device fleet
//! on the runtime timer wheel; verifier utilization, backlog and
//! turnaround vs fleet size, and the saturation knee vs farm size.

use crate::{Rendered, Scale};
use neuropuls_rt::trace::{Registry, Tracer};
use neuropuls_system::fleet::{run_fleet, FleetConfig, FleetReport};

fn render_table(out: &mut Rendered, reports: &[FleetReport]) {
    out.push(format!(
        "{:>8} {:>9} {:>8} {:>8} {:>10} {:>12} {:>12} {:>14}",
        "devices",
        "verifiers",
        "requests",
        "attests",
        "caught",
        "utilization",
        "max backlog",
        "turnaround µs"
    ));
    for r in reports {
        out.push(format!(
            "{:>8} {:>9} {:>8} {:>8} {:>7}/{:<2} {:>11.1}% {:>12} {:>14.1}",
            r.devices,
            r.verifiers,
            r.requests,
            r.attestations,
            r.compromised_caught,
            r.compromised_planted,
            r.verifier_utilization * 100.0,
            r.max_backlog,
            r.mean_turnaround_us
        ));
    }
}

/// Runs the fleet-size sweep (serial verifier) and the verifier-farm
/// sweep at the largest fleet. Every `(devices, verifiers)` cell is an
/// independent simulation seeded from its config, so the sweep fans out
/// on the pool with byte-identical output.
pub fn run(scale: Scale) -> (Rendered, Vec<FleetReport>) {
    let sizes: Vec<usize> = scale.pick(vec![2, 8], vec![2, 4, 8, 16, 32]);
    let farm_sizes: Vec<usize> = scale.pick(vec![1, 2], vec![1, 2, 4, 8]);
    let knee_devices = *sizes.last().expect("non-empty sweep");

    let mut cells: Vec<(usize, usize)> = sizes.iter().map(|&d| (d, 1)).collect();
    cells.extend(farm_sizes.iter().skip(1).map(|&v| (knee_devices, v)));
    // Each cell records into its own registry; merging in input order
    // afterwards keeps the aggregate byte-identical at any thread count
    // (registry merges are commutative on counts, and the merge *order*
    // of the float sums is fixed by the cell order, not the schedule).
    let cell_results: Vec<(FleetReport, Registry)> =
        neuropuls_rt::pool::par_map(cells, |(devices, verifiers)| {
            let registry = Registry::new();
            let report = run_fleet(
                &FleetConfig {
                    devices,
                    verifiers,
                    ..FleetConfig::default()
                },
                &mut Tracer::disabled(),
                &registry,
            );
            (report, registry)
        });
    let metrics = Registry::new();
    let reports: Vec<FleetReport> = cell_results
        .into_iter()
        .map(|(report, registry)| {
            metrics.merge(&registry);
            report
        })
        .collect();
    let (size_sweep, farm_tail) = reports.split_at(sizes.len());
    let mut farm_sweep: Vec<FleetReport> = vec![size_sweep[sizes.len() - 1]];
    farm_sweep.extend_from_slice(farm_tail);

    let mut out = Rendered::new("E17 (§V) — fleet attestation scheduling");
    out.push("fleet-size sweep, one serial verifier:".to_string());
    render_table(&mut out, size_sweep);
    out.push(
        "every planted compromise is caught; utilization and backlog grow with the fleet \
         until the serial verifier saturates"
            .to_string(),
    );
    out.push(String::new());
    out.push(format!(
        "verifier-farm sweep at {knee_devices} devices (the saturation knee moves out):"
    ));
    render_table(&mut out, &farm_sweep);
    out.push(
        "adding verifiers drains the backlog and pulls per-verifier utilization off the \
         ceiling; turnaround returns to the uncontended check time"
            .to_string(),
    );

    out.push(String::new());
    out.push(format!(
        "turnaround across all cells (histogram upper edges): p50 {:.1} µs, p99 {:.1} µs \
         over {} checks; queue depth p99 {:.0}",
        metrics.quantile("fleet.turnaround_ns", 0.5) / 1000.0,
        metrics.quantile("fleet.turnaround_ns", 0.99) / 1000.0,
        metrics.counter_value("fleet.attestations"),
        metrics.quantile("fleet.queue_depth", 0.99),
    ));

    let attempted: usize = reports.iter().map(|r| r.auth_attempted).sum();
    let completed: usize = reports.iter().map(|r| r.auth_completed).sum();
    let retransmits: u64 = reports.iter().map(|r| r.auth_retransmits).sum();
    let recoveries: u64 = reports.iter().map(|r| r.auth_desync_recoveries).sum();
    out.push(String::new());
    out.push(format!(
        "control-link mutual auth at {:.0}% frame loss: {completed}/{attempted} sessions \
         completed, {retransmits} retransmits, {recoveries} desync recoveries",
        FleetConfig::default().auth_loss_rate * 100.0
    ));
    (out, reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fleet_sweep() {
        let (_, reports) = run(Scale::Smoke);
        for r in &reports {
            assert_eq!(r.compromised_caught, r.compromised_planted, "{r:?}");
            assert!(r.verifier_utilization <= 1.0, "{r:?}");
        }
        let serial: Vec<&FleetReport> = reports.iter().filter(|r| r.verifiers == 1).collect();
        assert!(
            serial.last().unwrap().verifier_utilization >= serial[0].verifier_utilization,
            "utilization should grow with fleet size"
        );
        for r in &reports {
            assert_eq!(
                r.auth_completed, r.auth_attempted,
                "lossy control link lost sessions: {r:?}"
            );
        }
    }
}
