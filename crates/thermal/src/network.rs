//! The lumped RC thermal network: builder, state, and time stepping.
//!
//! A network is a set of *nodes* (thermal capacitances at a temperature),
//! *couplings* (thermal conductances between node pairs), *ambient links*
//! (conductances from a node to the ambient temperature), and per-node
//! *power injections*. Nodes are either **dynamic** (finite heat capacity,
//! temperature evolves) or **boundary** (fixed temperature — used for
//! things like a hand holding the phone, whose blood perfusion pins it
//! near 33 °C).

use crate::error::ThermalError;
use crate::integrator;
use crate::units::Celsius;

/// Opaque handle to a node of a [`ThermalNetwork`].
///
/// Ids are only meaningful for the network (or builder) that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Raw index of the node inside its network.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
pub(crate) enum NodeKind {
    /// Finite heat capacity in J/K; the temperature integrates over time.
    Dynamic { capacitance: f64 },
    /// Fixed temperature; acts as an infinite reservoir.
    Boundary,
}

#[derive(Debug, Clone)]
pub(crate) struct NodeSpec {
    pub(crate) name: String,
    pub(crate) kind: NodeKind,
    pub(crate) initial: Celsius,
}

/// Incrementally describes a thermal network, then [`build`]s it.
///
/// [`build`]: ThermalNetworkBuilder::build
///
/// ```
/// use usta_thermal::{Celsius, ThermalNetworkBuilder};
///
/// # fn main() -> Result<(), usta_thermal::ThermalError> {
/// let mut b = ThermalNetworkBuilder::new(Celsius(22.0));
/// let chip = b.add_node("chip", 1.5, Celsius(22.0))?;
/// let sink = b.add_node("sink", 40.0, Celsius(22.0))?;
/// b.couple(chip, sink, 2.0)?;
/// b.link_ambient(sink, 0.5)?;
/// let net = b.build()?;
/// assert_eq!(net.node_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ThermalNetworkBuilder {
    nodes: Vec<NodeSpec>,
    couplings: Vec<(usize, usize, f64)>,
    ambient_links: Vec<(usize, f64)>,
    ambient: Celsius,
}

impl ThermalNetworkBuilder {
    /// Starts a builder with the given ambient temperature.
    pub fn new(ambient: Celsius) -> ThermalNetworkBuilder {
        ThermalNetworkBuilder {
            nodes: Vec::new(),
            couplings: Vec::new(),
            ambient_links: Vec::new(),
            ambient,
        }
    }

    /// Adds a dynamic node with heat capacity `capacitance` (J/K) starting
    /// at `initial`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidCapacitance`] if the capacitance is
    /// not a positive finite number, [`ThermalError::InvalidTemperature`]
    /// if `initial` is non-physical, or [`ThermalError::DuplicateNode`] if
    /// the name is already taken.
    pub fn add_node(
        &mut self,
        name: &str,
        capacitance: f64,
        initial: Celsius,
    ) -> Result<NodeId, ThermalError> {
        if !(capacitance.is_finite() && capacitance > 0.0) {
            return Err(ThermalError::InvalidCapacitance {
                name: name.to_owned(),
                value: capacitance,
            });
        }
        self.push_node(name, NodeKind::Dynamic { capacitance }, initial)
    }

    /// Adds a boundary node pinned at `temperature` (an infinite thermal
    /// reservoir, e.g. a hand or a cooling plate).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidTemperature`] for a non-physical
    /// temperature or [`ThermalError::DuplicateNode`] for a repeated name.
    pub fn add_boundary_node(
        &mut self,
        name: &str,
        temperature: Celsius,
    ) -> Result<NodeId, ThermalError> {
        self.push_node(name, NodeKind::Boundary, temperature)
    }

    fn push_node(
        &mut self,
        name: &str,
        kind: NodeKind,
        initial: Celsius,
    ) -> Result<NodeId, ThermalError> {
        if !initial.is_physical() {
            return Err(ThermalError::InvalidTemperature {
                name: name.to_owned(),
                value: initial.value(),
            });
        }
        if self.nodes.iter().any(|n| n.name == name) {
            return Err(ThermalError::DuplicateNode {
                name: name.to_owned(),
            });
        }
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeSpec {
            name: name.to_owned(),
            kind,
            initial,
        });
        Ok(id)
    }

    /// Connects two nodes with a thermal conductance (W/K).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidConductance`] for a non-positive or
    /// non-finite conductance, [`ThermalError::SelfCoupling`] when both
    /// ends are the same node, [`ThermalError::DuplicateCoupling`] when
    /// the unordered pair is already linked, and
    /// [`ThermalError::UnknownNode`] for foreign ids.
    pub fn couple(&mut self, a: NodeId, b: NodeId, conductance: f64) -> Result<(), ThermalError> {
        self.check_id(a)?;
        self.check_id(b)?;
        if a == b {
            return Err(ThermalError::SelfCoupling {
                name: self.nodes[a.0].name.clone(),
            });
        }
        if !(conductance.is_finite() && conductance > 0.0) {
            return Err(ThermalError::InvalidConductance {
                link: format!("{}—{}", self.nodes[a.0].name, self.nodes[b.0].name),
                value: conductance,
            });
        }
        let (lo, hi) = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
        if self.couplings.iter().any(|&(x, y, _)| (x, y) == (lo, hi)) {
            return Err(ThermalError::DuplicateCoupling {
                link: format!("{}—{}", self.nodes[lo].name, self.nodes[hi].name),
            });
        }
        self.couplings.push((lo, hi, conductance));
        Ok(())
    }

    /// Connects a node to the ambient with a conductance (W/K).
    ///
    /// Multiple ambient links on the same node are summed.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidConductance`] for a bad value or
    /// [`ThermalError::UnknownNode`] for a foreign id.
    pub fn link_ambient(&mut self, node: NodeId, conductance: f64) -> Result<(), ThermalError> {
        self.check_id(node)?;
        if !(conductance.is_finite() && conductance > 0.0) {
            return Err(ThermalError::InvalidConductance {
                link: format!("{}—ambient", self.nodes[node.0].name),
                value: conductance,
            });
        }
        self.ambient_links.push((node.0, conductance));
        Ok(())
    }

    fn check_id(&self, id: NodeId) -> Result<(), ThermalError> {
        if id.0 >= self.nodes.len() {
            return Err(ThermalError::UnknownNode { index: id.0 });
        }
        Ok(())
    }

    /// Finalizes the network.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::EmptyNetwork`] if no nodes were added and
    /// [`ThermalError::InvalidTemperature`] if the ambient temperature is
    /// non-physical.
    pub fn build(&self) -> Result<ThermalNetwork, ThermalError> {
        if self.nodes.is_empty() {
            return Err(ThermalError::EmptyNetwork);
        }
        if !self.ambient.is_physical() {
            return Err(ThermalError::InvalidTemperature {
                name: "ambient".to_owned(),
                value: self.ambient.value(),
            });
        }
        let n = self.nodes.len();
        let mut ambient_conductance = vec![0.0; n];
        for &(i, g) in &self.ambient_links {
            ambient_conductance[i] += g;
        }
        let capacitance: Vec<f64> = self
            .nodes
            .iter()
            .map(|spec| match spec.kind {
                NodeKind::Dynamic { capacitance } => capacitance,
                NodeKind::Boundary => f64::INFINITY,
            })
            .collect();
        let boundary: Vec<bool> = self
            .nodes
            .iter()
            .map(|spec| matches!(spec.kind, NodeKind::Boundary))
            .collect();
        // Per-node total conductance, used for the Euler stability limit.
        let mut total_g = ambient_conductance.clone();
        for &(a, b, g) in &self.couplings {
            total_g[a] += g;
            total_g[b] += g;
        }
        let stable_dt = self
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(i, spec)| match spec.kind {
                NodeKind::Dynamic { capacitance } if total_g[i] > 0.0 => {
                    Some(capacitance / total_g[i])
                }
                _ => None,
            })
            .fold(f64::INFINITY, f64::min);

        Ok(ThermalNetwork {
            names: self.nodes.iter().map(|s| s.name.clone()).collect(),
            capacitance,
            boundary,
            couplings: self.couplings.clone(),
            ambient_conductance,
            ambient: self.ambient,
            temps: self.nodes.iter().map(|s| s.initial.value()).collect(),
            power: vec![0.0; n],
            // One tenth of the explicit-Euler stability bound keeps the
            // scheme stable, monotonic, and accurate to well under a
            // kelvin even for the fastest node of the network.
            max_step: 0.1 * stable_dt,
            elapsed: 0.0,
            scratch: vec![0.0; n],
        })
    }
}

/// A built thermal network: holds temperatures and integrates them.
#[derive(Debug, Clone)]
pub struct ThermalNetwork {
    names: Vec<String>,
    capacitance: Vec<f64>,
    boundary: Vec<bool>,
    couplings: Vec<(usize, usize, f64)>,
    ambient_conductance: Vec<f64>,
    ambient: Celsius,
    temps: Vec<f64>,
    power: Vec<f64>,
    max_step: f64,
    elapsed: f64,
    scratch: Vec<f64>,
}

impl ThermalNetwork {
    /// Number of nodes (dynamic and boundary).
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Name of a node.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.names[node.0]
    }

    /// Looks a node up by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.iter().position(|n| n == name).map(NodeId)
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.names.len()).map(NodeId)
    }

    /// Current temperature of a node.
    pub fn temperature(&self, node: NodeId) -> Celsius {
        Celsius(self.temps[node.0])
    }

    /// All node temperatures, indexed by `NodeId::index`.
    pub fn temperatures(&self) -> Vec<Celsius> {
        self.temps.iter().copied().map(Celsius).collect()
    }

    /// Overrides the temperature of a dynamic node (e.g. to restart an
    /// experiment from a warm state).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidTemperature`] for non-physical
    /// values and [`ThermalError::BoundaryNode`] when targeting a fixed
    /// node.
    pub fn set_temperature(&mut self, node: NodeId, t: Celsius) -> Result<(), ThermalError> {
        if !t.is_physical() {
            return Err(ThermalError::InvalidTemperature {
                name: self.names[node.0].clone(),
                value: t.value(),
            });
        }
        if self.boundary[node.0] {
            return Err(ThermalError::BoundaryNode {
                name: self.names[node.0].clone(),
            });
        }
        self.temps[node.0] = t.value();
        Ok(())
    }

    /// Resets every dynamic node to the given temperature and clears the
    /// elapsed-time counter.
    pub fn reset_to(&mut self, t: Celsius) {
        for (i, temp) in self.temps.iter_mut().enumerate() {
            if !self.boundary[i] {
                *temp = t.value();
            }
        }
        self.elapsed = 0.0;
    }

    /// Ambient temperature.
    pub fn ambient(&self) -> Celsius {
        self.ambient
    }

    /// Changes the ambient temperature (e.g. moving the phone outdoors).
    pub fn set_ambient(&mut self, t: Celsius) {
        self.ambient = t;
    }

    /// Sets the power injected into a node, in watts (replaces the
    /// previous value). Boundary nodes silently ignore power.
    pub fn set_power(&mut self, node: NodeId, watts: f64) {
        self.power[node.0] = watts;
    }

    /// Adds to the power injected into a node, in watts.
    pub fn add_power(&mut self, node: NodeId, watts: f64) {
        self.power[node.0] += watts;
    }

    /// Clears all power injections.
    pub fn clear_power(&mut self) {
        self.power.iter_mut().for_each(|p| *p = 0.0);
    }

    /// Power currently injected into a node, in watts.
    pub fn power(&self, node: NodeId) -> f64 {
        self.power[node.0]
    }

    /// Total power currently injected into dynamic nodes, in watts.
    pub fn total_power(&self) -> f64 {
        self.power
            .iter()
            .zip(&self.boundary)
            .filter(|&(_, &b)| !b)
            .map(|(p, _)| p)
            .sum()
    }

    /// Simulated time that has passed through [`step`](Self::step) /
    /// [`run`](Self::run), in seconds.
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }

    /// Largest internally-used Euler sub-step (half the stability limit).
    pub fn max_stable_step(&self) -> f64 {
        self.max_step
    }

    /// Heat currently stored in the dynamic nodes relative to ambient, in
    /// joules. Useful for energy-balance checks.
    pub fn stored_energy(&self) -> f64 {
        let amb = self.ambient.value();
        self.temps
            .iter()
            .zip(&self.capacitance)
            .zip(&self.boundary)
            .filter(|&(_, &b)| !b)
            .map(|((t, c), _)| c * (t - amb))
            .sum()
    }

    /// Instantaneous heat flow out of the network, in watts: the sum over
    /// ambient links plus flow into boundary nodes.
    pub fn outflow(&self) -> f64 {
        let amb = self.ambient.value();
        let mut out = 0.0;
        for (i, &g) in self.ambient_conductance.iter().enumerate() {
            if !self.boundary[i] {
                out += g * (self.temps[i] - amb);
            }
        }
        for &(a, b, g) in &self.couplings {
            match (self.boundary[a], self.boundary[b]) {
                (false, true) => out += g * (self.temps[a] - self.temps[b]),
                (true, false) => out += g * (self.temps[b] - self.temps[a]),
                _ => {}
            }
        }
        out
    }

    /// Advances the network by `dt` seconds with forward Euler,
    /// sub-stepping as needed for stability. `dt <= 0` is a no-op.
    pub fn step(&mut self, dt: f64) {
        if dt.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || !dt.is_finite() {
            return;
        }
        integrator::euler_step(self, dt);
        self.elapsed += dt;
    }

    /// Runs the network for `duration` seconds (convenience over
    /// [`step`](Self::step) — power inputs stay constant throughout).
    pub fn run(&mut self, duration: f64) {
        self.step(duration);
    }

    pub(crate) fn temps_slice(&self) -> &[f64] {
        &self.temps
    }

    pub(crate) fn is_boundary(&self, i: usize) -> bool {
        self.boundary[i]
    }

    pub(crate) fn couplings(&self) -> &[(usize, usize, f64)] {
        &self.couplings
    }

    pub(crate) fn ambient_conductances(&self) -> &[f64] {
        &self.ambient_conductance
    }

    pub(crate) fn powers(&self) -> &[f64] {
        &self.power
    }

    /// Splits the network into the pieces an integrator needs to hold
    /// simultaneously: mutable temperatures, the resident scratch
    /// buffer, the immutable derivative parameters, and the sub-step
    /// bound. Borrow-splitting here is what lets the integrator work
    /// in place instead of moving the scratch vector out and back every
    /// step.
    pub(crate) fn integration_state(&mut self) -> (&mut [f64], &mut [f64], NetParams<'_>, f64) {
        let ThermalNetwork {
            capacitance,
            boundary,
            couplings,
            ambient_conductance,
            ambient,
            temps,
            power,
            max_step,
            scratch,
            ..
        } = self;
        (
            temps.as_mut_slice(),
            scratch.as_mut_slice(),
            NetParams {
                boundary,
                capacitance,
                couplings,
                ambient_conductance,
                ambient: ambient.value(),
                power,
            },
            *max_step,
        )
    }
}

/// Immutable view of everything [`derivatives_into`] needs, borrowed
/// apart from the temperature and scratch state so integrators can
/// mutate those while the parameters stay shared.
pub(crate) struct NetParams<'a> {
    pub(crate) boundary: &'a [bool],
    pub(crate) capacitance: &'a [f64],
    pub(crate) couplings: &'a [(usize, usize, f64)],
    pub(crate) ambient_conductance: &'a [f64],
    pub(crate) ambient: f64,
    pub(crate) power: &'a [f64],
}

/// Writes dT/dt for `temps` into `out`.
pub(crate) fn derivatives_into(p: &NetParams<'_>, temps: &[f64], out: &mut [f64]) {
    let amb = p.ambient;
    for (i, o) in out.iter_mut().enumerate() {
        *o = if p.boundary[i] {
            0.0
        } else {
            p.ambient_conductance[i] * (amb - temps[i]) + p.power[i]
        };
    }
    for &(a, b, g) in p.couplings {
        let flow = g * (temps[a] - temps[b]); // a -> b
        if !p.boundary[b] {
            out[b] += flow;
        }
        if !p.boundary[a] {
            out[a] -= flow;
        }
    }
    for ((o, &b), &c) in out.iter_mut().zip(p.boundary).zip(p.capacitance) {
        if !b {
            *o /= c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_net() -> (ThermalNetwork, NodeId, NodeId) {
        let mut b = ThermalNetworkBuilder::new(Celsius(25.0));
        let die = b.add_node("die", 2.0, Celsius(25.0)).unwrap();
        let case = b.add_node("case", 30.0, Celsius(25.0)).unwrap();
        b.couple(die, case, 1.5).unwrap();
        b.link_ambient(case, 0.3).unwrap();
        (b.build().unwrap(), die, case)
    }

    #[test]
    fn builder_validates_capacitance() {
        let mut b = ThermalNetworkBuilder::new(Celsius(25.0));
        assert!(matches!(
            b.add_node("x", 0.0, Celsius(25.0)),
            Err(ThermalError::InvalidCapacitance { .. })
        ));
        assert!(matches!(
            b.add_node("x", f64::NAN, Celsius(25.0)),
            Err(ThermalError::InvalidCapacitance { .. })
        ));
    }

    #[test]
    fn builder_rejects_duplicate_names_and_self_coupling() {
        let mut b = ThermalNetworkBuilder::new(Celsius(25.0));
        let a = b.add_node("a", 1.0, Celsius(25.0)).unwrap();
        assert!(matches!(
            b.add_node("a", 1.0, Celsius(25.0)),
            Err(ThermalError::DuplicateNode { .. })
        ));
        assert!(matches!(
            b.couple(a, a, 1.0),
            Err(ThermalError::SelfCoupling { .. })
        ));
    }

    #[test]
    fn builder_rejects_duplicate_coupling_either_order() {
        let mut b = ThermalNetworkBuilder::new(Celsius(25.0));
        let a = b.add_node("a", 1.0, Celsius(25.0)).unwrap();
        let c = b.add_node("c", 1.0, Celsius(25.0)).unwrap();
        b.couple(a, c, 1.0).unwrap();
        assert!(matches!(
            b.couple(c, a, 2.0),
            Err(ThermalError::DuplicateCoupling { .. })
        ));
    }

    #[test]
    fn builder_rejects_empty_network() {
        let b = ThermalNetworkBuilder::new(Celsius(25.0));
        assert!(matches!(b.build(), Err(ThermalError::EmptyNetwork)));
    }

    #[test]
    fn heated_die_warms_case_above_ambient() {
        let (mut net, die, case) = two_node_net();
        net.set_power(die, 2.0);
        net.run(600.0);
        assert!(net.temperature(die) > net.temperature(case));
        assert!(net.temperature(case) > Celsius(25.0));
    }

    #[test]
    fn no_power_relaxes_to_ambient() {
        let (mut net, die, case) = two_node_net();
        net.set_temperature(die, Celsius(60.0)).unwrap();
        net.set_temperature(case, Celsius(50.0)).unwrap();
        net.run(3600.0 * 5.0);
        assert!((net.temperature(die) - Celsius(25.0)).abs() < 0.01);
        assert!((net.temperature(case) - Celsius(25.0)).abs() < 0.01);
    }

    #[test]
    fn energy_balance_over_one_step() {
        let (mut net, die, _) = two_node_net();
        net.set_power(die, 3.0);
        let before = net.stored_energy();
        // One max-stable step: forward Euler conserves energy exactly per
        // sub-step (internal flows cancel in the capacitance-weighted sum).
        let dt = net.max_stable_step();
        let out_before = net.outflow();
        net.step(dt);
        let after = net.stored_energy();
        let expected = (3.0 - out_before) * dt;
        assert!(
            (after - before - expected).abs() < 1e-9,
            "energy drift: {} vs {}",
            after - before,
            expected
        );
    }

    #[test]
    fn boundary_node_stays_fixed_and_sinks_heat() {
        let mut b = ThermalNetworkBuilder::new(Celsius(25.0));
        let die = b.add_node("die", 2.0, Celsius(25.0)).unwrap();
        let hand = b.add_boundary_node("hand", Celsius(33.0)).unwrap();
        b.couple(die, hand, 1.0).unwrap();
        let mut net = b.build().unwrap();
        net.run(3600.0);
        // With no power, the die equilibrates to the hand temperature.
        assert!((net.temperature(die) - Celsius(33.0)).abs() < 0.01);
        assert_eq!(net.temperature(hand), Celsius(33.0));
        // Setting a boundary temperature is rejected.
        assert!(matches!(
            net.set_temperature(hand, Celsius(20.0)),
            Err(ThermalError::BoundaryNode { .. })
        ));
    }

    #[test]
    fn node_lookup_by_name() {
        let (net, die, case) = two_node_net();
        assert_eq!(net.node_by_name("die"), Some(die));
        assert_eq!(net.node_by_name("case"), Some(case));
        assert_eq!(net.node_by_name("nope"), None);
        assert_eq!(net.node_name(die), "die");
    }

    #[test]
    fn reset_restores_dynamic_nodes() {
        let (mut net, die, _) = two_node_net();
        net.set_power(die, 5.0);
        net.run(120.0);
        assert!(net.elapsed() > 0.0);
        net.reset_to(Celsius(25.0));
        assert_eq!(net.elapsed(), 0.0);
        assert_eq!(net.temperature(die), Celsius(25.0));
    }

    #[test]
    fn add_power_accumulates_and_clear_resets() {
        let (mut net, die, case) = two_node_net();
        net.set_power(die, 1.0);
        net.add_power(die, 0.5);
        assert_eq!(net.power(die), 1.5);
        net.add_power(case, 0.25);
        assert!((net.total_power() - 1.75).abs() < 1e-12);
        net.clear_power();
        assert_eq!(net.total_power(), 0.0);
    }

    #[test]
    fn ambient_change_shifts_equilibrium() {
        let (mut net, _, case) = two_node_net();
        net.set_ambient(Celsius(35.0));
        net.run(3600.0 * 5.0);
        assert!((net.temperature(case) - Celsius(35.0)).abs() < 0.01);
    }

    #[test]
    fn zero_or_negative_step_is_noop() {
        let (mut net, die, _) = two_node_net();
        net.set_power(die, 5.0);
        let t0 = net.temperature(die);
        net.step(0.0);
        net.step(-5.0);
        net.step(f64::NAN);
        assert_eq!(net.temperature(die), t0);
        assert_eq!(net.elapsed(), 0.0);
    }
}
