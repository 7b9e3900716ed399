//! E3 — regenerates **Fig. 2-(a)**: I-V characteristic curves of the
//! single-diode model, sweeping irradiance (dotted family) and temperature
//! (solid family).
//!
//! Prints CSV series; also summarizes the qualitative claims of the figure.
//!
//! Usage: `cargo run -p pv_bench --bin fig2_iv`

use pv_model::SingleDiodeModule;
use pv_units::{Celsius, Irradiance};

fn main() {
    let module = SingleDiodeModule::pv_mf165eb3().thermal_k(0.0);

    println!("# Fig 2-(a): I-V curves, PV-MF165EB3 single-diode model");
    println!("# family 1: G sweep at T = 25 degC");
    println!("curve,voltage_V,current_A");
    for &g in &[200.0, 400.0, 600.0, 800.0, 1000.0] {
        let curve = module.iv_curve(Irradiance::from_w_per_m2(g), Celsius::new(25.0), 40);
        for p in curve.points() {
            println!("G{g:.0},{:.3},{:.3}", p.voltage.value(), p.current.value());
        }
    }
    println!("# family 2: T sweep at G = 1000 W/m2");
    for &t in &[0.0, 25.0, 50.0, 75.0] {
        let curve = module.iv_curve(Irradiance::STC, Celsius::new(t), 40);
        for p in curve.points() {
            println!("T{t:.0},{:.3},{:.3}", p.voltage.value(), p.current.value());
        }
    }

    // The figure's qualitative claims, checked numerically.
    let g_lo = module.iv_curve(Irradiance::from_w_per_m2(500.0), Celsius::new(25.0), 200);
    let g_hi = module.iv_curve(Irradiance::STC, Celsius::new(25.0), 200);
    let t_lo = module.iv_curve(Irradiance::STC, Celsius::new(10.0), 200);
    let t_hi = module.iv_curve(Irradiance::STC, Celsius::new(60.0), 200);
    println!("\n# claims:");
    println!(
        "# Isc grows ~proportionally with G: Isc(1000)/Isc(500) = {:.3}",
        g_hi.isc().value() / g_lo.isc().value()
    );
    println!(
        "# Voc grows logarithmically with G: Voc(1000)-Voc(500) = {:.2} V",
        g_hi.voc().value() - g_lo.voc().value()
    );
    println!(
        "# higher T raises Isc slightly: Isc(60C)-Isc(10C) = {:.3} A",
        t_hi.isc().value() - t_lo.isc().value()
    );
    println!(
        "# higher T lowers Voc: Voc(60C)-Voc(10C) = {:.2} V",
        t_hi.voc().value() - t_lo.voc().value()
    );
}
