//! # usta-catalog — catalog directories: device files and scenario grids
//!
//! Growing the fleet toward "hundreds of devices × scenarios without
//! recompiling" needs a declarative catalog on disk. A [`Catalog`] is
//! what one directory of `.toml` files parses into: device specs, read
//! by `usta-device`'s strict loader ([`usta_device::parse_device`], the
//! same one that builds the built-ins from the committed
//! `catalog/*.toml`), and [`ScenarioGridSpec`] sweep axes, read by this
//! crate's [`grid`] module. Every failure is a structured
//! [`usta_device::CatalogError`] carrying file/line/key context, and
//! the full `DeviceSpec::validate` suite runs on every device load.
//!
//! [`Catalog::install`] merges a catalog's devices over the built-ins
//! in the process-wide registry (`usta_device::install`), after which
//! every consumer of `usta_device::by_id` — scenario resolution,
//! sweeps, `--device all` expansion, error listings — sees the merged
//! set. The built-ins are the committed files themselves, so a sweep
//! with `--catalog catalog/` is bit-identical to one without.
//!
//! ```
//! use usta_catalog::{grid_to_toml, parse_grid, ScenarioGridSpec};
//!
//! let grid = ScenarioGridSpec {
//!     name: "tiny".to_owned(),
//!     benchmarks: vec!["YouTube".to_owned()],
//!     ambients: vec!["office".to_owned()],
//!     cases: vec!["naked".to_owned()],
//!     charging: vec![false],
//!     hand_held: vec![true],
//! };
//! let text = grid_to_toml(&grid);
//! assert_eq!(parse_grid(&text).expect("round-trips"), grid);
//! ```
//!
//! Dependency direction: this crate sits above `usta-device` (whose
//! loader it runs per file) and below `usta-fleet` (which resolves grid
//! axis strings against its scenario enums and exposes the CLI flags).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fs;
use std::path::{Path, PathBuf};

use usta_device::{device, toml, CatalogError, DeviceSpec, DEVICE_SCHEMA};

pub mod grid;

pub use grid::{grid_to_toml, parse_grid, ScenarioGridSpec};

/// The `schema` value of a scenario-grid file.
pub const GRID_SCHEMA: &str = "usta-catalog/grid/v1";

/// Everything one catalog directory parsed into: validated device
/// specs and scenario grids, in filename order.
///
/// Loading does **not** touch the process-wide registry — call
/// [`Catalog::install`] for that (CLIs do it once at startup; the
/// `catalog_load` bench loads repeatedly without installing).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Catalog {
    /// Device specs, validated, in filename order.
    pub devices: Vec<DeviceSpec>,
    /// Scenario grids, in filename order.
    pub grids: Vec<ScenarioGridSpec>,
}

impl Catalog {
    /// Loads every `*.toml` file in `dir` (non-recursive, filename
    /// order), dispatching on each file's `schema` key.
    ///
    /// # Errors
    ///
    /// Returns the first [`CatalogError`] encountered — unreadable
    /// directory or file, malformed TOML, unknown schema, a spec that
    /// fails validation, or a device id / grid name duplicated
    /// *within the directory* (overriding a built-in is fine; two
    /// files claiming the same id is a mistake).
    pub fn load_dir(dir: impl AsRef<Path>) -> Result<Catalog, CatalogError> {
        let dir = dir.as_ref();
        let entries = fs::read_dir(dir)
            .map_err(|e| CatalogError::io(format!("cannot read {}: {e}", dir.display())))?;
        let mut paths: Vec<PathBuf> = Vec::new();
        for entry in entries {
            let entry = entry
                .map_err(|e| CatalogError::io(format!("cannot read {}: {e}", dir.display())))?;
            let path = entry.path();
            if path.extension().is_some_and(|ext| ext == "toml") {
                paths.push(path);
            }
        }
        paths.sort();
        let mut catalog = Catalog::default();
        for path in &paths {
            catalog.load_file(path)?;
        }
        Ok(catalog)
    }

    fn load_file(&mut self, path: &Path) -> Result<(), CatalogError> {
        let text = fs::read_to_string(path)
            .map_err(|e| CatalogError::io(format!("cannot read file: {e}")).with_file(path))?;
        let doc = toml::parse(&text)
            .map_err(|e| CatalogError::parse(e.line, e.message).with_file(path))?;
        let root = device::Section::new(&doc, "");
        let schema = root.string("schema").map_err(|e| e.with_file(path))?;
        match schema.as_str() {
            DEVICE_SCHEMA => {
                let spec = device::device_from_document(&doc).map_err(|e| e.with_file(path))?;
                if let Some(previous) = self
                    .devices
                    .iter()
                    .find(|d| d.id.eq_ignore_ascii_case(spec.id))
                {
                    return Err(CatalogError::schema(
                        0,
                        "device.id",
                        format!(
                            "device {:?} is defined by another file in this catalog",
                            previous.id
                        ),
                    )
                    .with_file(path));
                }
                self.devices.push(spec);
            }
            GRID_SCHEMA => {
                let spec = grid::grid_from_document(&doc).map_err(|e| e.with_file(path))?;
                if self.grids.iter().any(|g| g.name == spec.name) {
                    return Err(CatalogError::schema(
                        0,
                        "grid.name",
                        format!(
                            "grid {:?} is defined by another file in this catalog",
                            spec.name
                        ),
                    )
                    .with_file(path));
                }
                self.grids.push(spec);
            }
            other => {
                return Err(CatalogError::schema(
                    root.require_item("schema")
                        .map(|item| item.line)
                        .unwrap_or(0),
                    "schema",
                    format!(
                        "unsupported schema {other:?} (known: {DEVICE_SCHEMA:?}, {GRID_SCHEMA:?})"
                    ),
                )
                .with_file(path));
            }
        }
        Ok(())
    }

    /// Installs every device into the process-wide merged registry
    /// (`usta_device::install`): file entries override same-id
    /// built-ins, new ids are appended. Returns the installed
    /// `&'static` specs in catalog order.
    ///
    /// # Errors
    ///
    /// Returns a [`CatalogError`] if a spec fails validation — only
    /// possible for specs mutated after loading, since `load_dir`
    /// validates.
    pub fn install(&self) -> Result<Vec<&'static DeviceSpec>, CatalogError> {
        self.devices
            .iter()
            .map(|spec| {
                usta_device::install(spec.clone()).map_err(|e| CatalogError::device(0, "device", e))
            })
            .collect()
    }

    /// The loaded device with this id (case-insensitive), if any.
    pub fn device(&self, id: &str) -> Option<&DeviceSpec> {
        self.devices.iter().find(|d| d.id.eq_ignore_ascii_case(id))
    }

    /// The loaded grid with this name, if any.
    pub fn grid(&self, name: &str) -> Option<&ScenarioGridSpec> {
        self.grids.iter().find(|g| g.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usta_device::{by_id, device_to_toml, ErrorKind};

    fn builtin_file(id: &str) -> String {
        device_to_toml(by_id(id).expect("built-in"))
    }

    fn write_dir(files: &[(&str, String)]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "usta-catalog-test-{}-{:p}",
            std::process::id(),
            files.as_ptr()
        ));
        fs::create_dir_all(&dir).expect("create temp dir");
        for (name, text) in files {
            fs::write(dir.join(name), text).expect("write catalog file");
        }
        dir
    }

    #[test]
    fn load_dir_collects_devices_and_grids_in_filename_order() {
        let grid = ScenarioGridSpec {
            name: "tiny".to_owned(),
            benchmarks: vec!["YouTube".to_owned()],
            ambients: vec!["office".to_owned()],
            cases: vec!["naked".to_owned()],
            charging: vec![false],
            hand_held: vec![true],
        };
        let dir = write_dir(&[
            ("b-nexus4.toml", builtin_file("nexus4")),
            ("a-octa.toml", builtin_file("flagship-octa")),
            ("z-grid.toml", grid_to_toml(&grid)),
        ]);
        let catalog = Catalog::load_dir(&dir).expect("loads");
        let ids: Vec<&str> = catalog.devices.iter().map(|d| d.id).collect();
        assert_eq!(ids, ["flagship-octa", "nexus4"]);
        assert_eq!(catalog.grids, vec![grid]);
        assert_eq!(catalog.device("NEXUS4").map(|d| d.id), Some("nexus4"));
        assert!(catalog.grid("tiny").is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_id_across_files_is_rejected() {
        let dir = write_dir(&[
            ("one.toml", builtin_file("nexus4")),
            ("two.toml", builtin_file("nexus4")),
        ]);
        let error = Catalog::load_dir(&dir).unwrap_err();
        assert_eq!(error.key.as_deref(), Some("device.id"));
        assert!(error.to_string().contains("two.toml"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_schema_is_rejected_with_file_context() {
        let dir = write_dir(&[("odd.toml", "schema = \"usta-catalog/odd/v1\"\n".to_owned())]);
        let error = Catalog::load_dir(&dir).unwrap_err();
        assert!(error.to_string().contains("odd.toml"));
        assert!(error.to_string().contains("unsupported schema"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_is_an_io_error() {
        let error = Catalog::load_dir("/nonexistent/usta-catalog").unwrap_err();
        assert!(matches!(error.kind, ErrorKind::Io(_)));
    }
}
