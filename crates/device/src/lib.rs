//! # usta-device — the data-driven device catalog
//!
//! The paper evaluates USTA on exactly one handset (a Google Nexus 4),
//! but nothing in the idea is device-specific: any platform with a
//! cpufreq OPP table, a power model, and an exterior the user touches
//! can run a user-specific skin-temperature governor — and commercial
//! platforms differ widely in power and thermal behaviour (Bhat et al.,
//! *Power and Thermal Analysis of Commercial Mobile Platforms*). This
//! crate turns the reproduction's hardwired Nexus-4 constants into
//! data: a [`DeviceSpec`] bundles everything the simulator needs to
//! instantiate a device —
//!
//! * one [`ClusterSpec`] per frequency domain — its core count, OPP
//!   table (frequency/voltage pairs), and per-frequency power
//!   coefficients; big.LITTLE parts declare two clusters, big first,
//! * display and battery power models,
//! * the back-cover material and a declarative [`ThermalSpec`] —
//!   named RC nodes with **one die node per cluster**, conductance
//!   edges, and skin/screen/back designations — lowered to a
//!   `usta_thermal::ThermalTopology` at device construction,
//!
//! and a [`Registry`] validates specs at construction (monotone OPP
//! power, positive capacitances and conductances, per-cluster die
//! nodes, connected thermal graph) and resolves ids for CLIs.
//!
//! Devices are data files. [`parse_device`] reads the strict TOML
//! subset of a catalog device file (`schema = "usta-catalog/device/v1"`)
//! into a validated spec, with structured [`CatalogError`]s carrying
//! line and key context, and [`device_to_toml`] writes one back. The
//! built-in catalog ([`NAMES`]) is the committed `catalog/*.toml` files,
//! embedded at compile time and parsed once per process — the only
//! place their numbers live. It ships five devices:
//!
//! | id | domains | die nodes | class |
//! |---|---|---|---|
//! | `nexus4` | 1 (`cpu`, 4 cores) | `cpu` | the paper's quad-core handset, with the calibrated constants |
//! | `flagship-octa` | 2 (`big`+`little`, 4+4 cores) | `die_big`, `die_little` | a big.LITTLE octa-core flagship with per-cluster frequency domains |
//! | `prime-flagship` | 3 (`prime`+`big`+`little`, 1+3+4 cores) | `die_prime`, `die_big`, `die_little` | a three-domain flagship with a 2.84 GHz prime core |
//! | `tablet-10in` | 1 (`cpu`, 6 cores) | `cpu` | a tablet with several times the phone's thermal mass |
//! | `budget-quad` | 1 (`cpu`, 4 cores) | `cpu` | a low-end quad-core with a shallow OPP table |
//!
//! ```
//! use usta_device::{by_id, Registry, NAMES};
//!
//! let nexus4 = by_id("nexus4").expect("built-in");
//! assert_eq!(nexus4.domains(), 1);
//! assert_eq!(nexus4.cores(), 4);
//! assert_eq!(nexus4.clusters[0].opp.len(), 12);
//! let flagship = by_id("flagship-octa").expect("built-in");
//! assert_eq!(flagship.topology(), "4+4");
//! assert!(Registry::builtin().by_id("FLAGSHIP-OCTA").is_some()); // case-insensitive
//! assert_eq!(NAMES.len(), Registry::builtin().len());
//! ```
//!
//! Dependency direction: this crate sits between `usta-thermal` (whose
//! topology types its `ThermalSpec` lowers into) and `usta-soc` (which
//! builds its `OppTable`/`CpuPowerModel`/`Battery`/`Display` instances
//! *from* a spec — see `usta_soc::spec`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod device;
pub mod error;
mod intern;
pub mod registry;
pub mod spec;
pub mod thermal;
pub mod toml;

pub use device::{device_to_toml, material_name, parse_device};
pub use error::{CatalogError, DeviceError, ErrorKind};
pub use registry::{
    by_id, install, merged, merged_ids, try_by_id, Registry, UnknownDeviceError, NAMES,
};
pub use spec::{
    BatterySpec, ClusterSpec, CpuPowerSpec, DeviceSpec, DisplaySpec, GpuDomainSpec, GpuPowerSpec,
    OppPoint, MAX_CLUSTER_CORES, MAX_CPU_CLUSTERS, MAX_FREQ_DOMAINS,
};
pub use thermal::{ThermalNodeSpec, ThermalSpec};

/// The `schema` value of a device file.
pub const DEVICE_SCHEMA: &str = "usta-catalog/device/v1";
