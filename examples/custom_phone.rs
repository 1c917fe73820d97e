//! Compare two catalog devices as thermal objects: the paper's Nexus 4
//! and the 10-inch tablet, under the same sustained load. Each device's
//! thermal network is data (`catalog/<id>.toml`); the runtime model is
//! the same for both — the public thermal API is not hard-wired to the
//! Nexus 4.
//!
//! ```sh
//! cargo run --release -p usta-sim --example custom_phone
//! ```

use usta_thermal::{DeviceThermalModel, HeatLoad};

/// A device's thermal model, built from its registry spec.
fn thermal_model(id: &str) -> Result<DeviceThermalModel, Box<dyn std::error::Error>> {
    let spec = usta_device::try_by_id(id)?;
    Ok(DeviceThermalModel::new(spec.thermal.topology())?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut phone = thermal_model("nexus4")?;
    let mut tablet = thermal_model("tablet-10in")?;

    // Same sustained gaming load on both (each has a single CPU die).
    let load = HeatLoad {
        die_w: vec![2.5],
        gpu_w: 1.4,
        display_w: 1.0,
        battery_w: 0.3,
        board_w: 0.4,
    };
    phone.set_heat(load.clone());
    tablet.set_heat(load);

    println!("minutes | phone skin °C | tablet skin °C");
    println!("{}", "-".repeat(44));
    for minute in 1..=30 {
        phone.step(60.0);
        tablet.step(60.0);
        if minute % 3 == 0 {
            println!(
                "{:>7} | {:>13.2} | {:>14.2}",
                minute,
                phone.skin_temperature().value(),
                tablet.skin_temperature().value(),
            );
        }
    }

    let phone_ss = phone.steady_state()?[phone.topology().roles.skin];
    println!(
        "\nphone steady-state skin would be {:.1}; the tablet's extra mass and \
         surface keep it {:.1} K cooler after half an hour.",
        phone_ss,
        phone.skin_temperature() - tablet.skin_temperature(),
    );
    Ok(())
}
