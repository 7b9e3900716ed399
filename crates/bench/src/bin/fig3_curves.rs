//! E2 — regenerates **Fig. 3**: power characteristics of the
//! PV-MF165EB3 empirical model.
//!
//! Left: P-V curves at several G (via the single-diode model).
//! Middle: normalized Pmax/Voc/Isc vs temperature.
//! Right: normalized Pmax/Voc/Isc vs irradiance.
//!
//! Usage: `cargo run -p pv_bench --bin fig3_curves`

use pv_model::{EmpiricalModule, ModuleModel, SingleDiodeModule};
use pv_units::{Celsius, Irradiance};

fn main() {
    let emp = EmpiricalModule::pv_mf165eb3().thermal_k(0.0);
    let phys = SingleDiodeModule::pv_mf165eb3().thermal_k(0.0);
    let t25 = Celsius::new(25.0);

    println!("# Fig 3 left: P-V curves at 25 degC");
    println!("series,voltage_V,power_W");
    for &g in &[200.0, 600.0, 1000.0] {
        let curve = phys.iv_curve(Irradiance::from_w_per_m2(g), t25, 40);
        for p in curve.points() {
            println!(
                "G{g:.0},{:.2},{:.2}",
                p.voltage.value(),
                p.power().as_watts()
            );
        }
    }

    println!("\n# Fig 3 middle: normalized characteristics vs cell temperature (G = 1000)");
    println!("t_degC,p_norm,voc_norm,isc_norm");
    let p_ref = emp.power(Irradiance::STC, t25).as_watts();
    let voc_ref = emp.voc(Irradiance::STC, t25).value();
    let isc_ref = emp.isc(Irradiance::STC, t25).value();
    for t in (0..=75).step_by(5) {
        let t_c = Celsius::new(f64::from(t));
        println!(
            "{t},{:.4},{:.4},{:.4}",
            emp.power(Irradiance::STC, t_c).as_watts() / p_ref,
            emp.voc(Irradiance::STC, t_c).value() / voc_ref,
            emp.isc(Irradiance::STC, t_c).value() / isc_ref,
        );
    }

    println!("\n# Fig 3 right: normalized characteristics vs irradiance (T = 25 degC)");
    println!("g_w_per_m2,p_norm,voc_norm,isc_norm");
    for g in (100..=1000).step_by(50) {
        let g_i = Irradiance::from_w_per_m2(f64::from(g));
        println!(
            "{g},{:.4},{:.4},{:.4}",
            emp.power(g_i, t25).as_watts() / p_ref,
            emp.voc(g_i, t25).value() / voc_ref,
            emp.isc(g_i, t25).value() / isc_ref,
        );
    }

    // The paper's headline reading of this figure (Sec. III-C): over
    // 200..1000 W/m2 power changes ~5x, while typical temperature ranges
    // change it by ~+/-20%.
    let p200 = emp.power(Irradiance::from_w_per_m2(200.0), t25).as_watts();
    let p1000 = emp.power(Irradiance::STC, t25).as_watts();
    let p_cold = emp.power(Irradiance::STC, Celsius::new(0.0)).as_watts();
    let p_hot = emp.power(Irradiance::STC, Celsius::new(60.0)).as_watts();
    println!("\n# claims:");
    println!(
        "# power ratio G=1000 vs G=200: {:.2}x (paper: ~5x)",
        p1000 / p200
    );
    println!(
        "# power swing over 0..60 degC: {:+.1}% / {:+.1}% (paper: within ~+/-20%)",
        (p_cold / p_ref - 1.0) * 100.0,
        (p_hot / p_ref - 1.0) * 100.0
    );
}
