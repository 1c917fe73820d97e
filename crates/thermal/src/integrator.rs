//! Time integration for the thermal ODE system.
//!
//! Forward Euler with automatic sub-stepping: the network precomputes a
//! tenth of its explicit stability bound `min_i C_i / ΣG_i` and the
//! integrator never exceeds it, which makes the scheme both stable and
//! monotonic.

use crate::network::{derivatives_into, ThermalNetwork};

/// Advances `net` by `dt` seconds using sub-stepped forward Euler.
///
/// The network's scratch buffer is borrowed in place (via
/// [`ThermalNetwork::integration_state`]) rather than moved out and
/// back each call, so the sub-step loop touches no `Vec` headers at
/// all.
pub(crate) fn euler_step(net: &mut ThermalNetwork, dt: f64) {
    let (temps, deriv, params, max_step) = net.integration_state();
    let n = temps.len();

    let mut remaining = dt;
    while remaining > 0.0 {
        let h = remaining.min(max_step);
        derivatives_into(&params, temps, deriv);
        for i in 0..n {
            temps[i] += h * deriv[i];
        }
        remaining -= h;
    }
}

#[cfg(test)]
mod tests {
    use crate::network::ThermalNetworkBuilder;
    use crate::units::Celsius;

    /// Single node with an ambient link has the analytic solution
    /// T(t) = T_amb + P/G + (T0 − T_amb − P/G)·exp(−G·t/C).
    fn analytic(t: f64, t0: f64, amb: f64, p: f64, g: f64, c: f64) -> f64 {
        let t_ss = amb + p / g;
        t_ss + (t0 - t_ss) * (-g * t / c).exp()
    }

    fn single_node() -> crate::ThermalNetwork {
        let mut b = ThermalNetworkBuilder::new(Celsius(20.0));
        let n = b.add_node("n", 10.0, Celsius(50.0)).unwrap();
        b.link_ambient(n, 0.5).unwrap();
        let mut net = b.build().unwrap();
        net.set_power(n, 1.0);
        net
    }

    fn assert_matches_analytic(duration: f64, tolerance: f64) {
        let mut net = single_node();
        let node = net.node_by_name("n").unwrap();
        net.run(duration);
        let expected = analytic(duration, 50.0, 20.0, 1.0, 0.5, 10.0);
        assert!(
            (net.temperature(node).value() - expected).abs() < tolerance,
            "euler {} vs analytic {} after {duration} s",
            net.temperature(node),
            expected
        );
    }

    #[test]
    fn euler_matches_analytic_solution() {
        // Sub-stepping at a tenth of the stability bound stays within a
        // kelvin over 1.5 time constants.
        assert_matches_analytic(30.0, 1.0);
    }

    #[test]
    fn euler_matches_analytic_solution_on_long_runs() {
        // Over 30 time constants the scheme settles on the exact steady
        // state.
        assert_matches_analytic(600.0, 0.01);
    }

    #[test]
    fn euler_is_monotonic_toward_equilibrium() {
        // Starting above the steady state with no power, temperature must
        // decrease monotonically — no oscillation from too-large steps.
        let mut net = single_node();
        let node = net.node_by_name("n").unwrap();
        net.set_power(node, 0.0);
        let mut prev = net.temperature(node).value();
        for _ in 0..200 {
            net.step(1.0);
            let cur = net.temperature(node).value();
            assert!(cur <= prev + 1e-12, "non-monotonic: {cur} > {prev}");
            assert!(cur >= 20.0 - 1e-9, "undershoot below ambient: {cur}");
            prev = cur;
        }
    }
}
