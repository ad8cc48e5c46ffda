//! Regenerates **Table V** (dataset description): the census of every
//! generated dataset, with phish/legitimate counts per campaign and
//! language.
//!
//! Run: `cargo run --release -p kyp-bench --bin exp_table5_datasets -- --scale 0.05`

use kyp_bench::{EvalArgs, ExperimentEnv};

fn main() {
    let args = EvalArgs::parse();
    let env = ExperimentEnv::prepare(&args);
    let c = &env.corpus;

    println!("Table V: Datasets description (scale {:.3})", args.scale);
    println!("{:<6} {:<12} {:>9}", "Set", "Name", "Count");
    println!(
        "{:<6} {:<12} {:>9}",
        "Phish",
        "phishTrain",
        c.phish_train.len()
    );
    println!("{:<6} {:<12} {:>9}", "", "phishTest", c.phish_test.len());
    let targets: std::collections::HashSet<&str> = c
        .phish_brand
        .iter()
        .filter_map(|r| r.target.as_deref())
        .collect();
    println!(
        "{:<6} {:<12} {:>9}   ({} distinct targets, {} hint-less)",
        "",
        "phishBrand",
        c.phish_brand.len(),
        targets.len(),
        c.phish_brand.iter().filter(|r| r.target.is_none()).count()
    );
    println!("{:<6} {:<12} {:>9}", "Leg", "legTrain", c.leg_train.len());
    for (lang, urls) in &c.language_tests {
        println!("{:<6} {:<12} {:>9}", "", lang.name(), urls.len());
    }

    // The paper notes 43.5% of legitimate test RDNs are Alexa-ranked.
    let mut ranked = 0usize;
    let mut total = 0usize;
    let browser = kyp_web::Browser::new(&c.world);
    for (_, urls) in &c.language_tests {
        for url in urls {
            if let Ok(v) = browser.visit(url) {
                if let Some(rdn) = v.landing_url.rdn() {
                    total += 1;
                    if c.ranker.contains(rdn) {
                        ranked += 1;
                    }
                }
            }
        }
    }
    println!();
    println!(
        "Legitimate test RDNs in ranking list: {ranked}/{total} ({:.1}%)  [paper: 43.5%]",
        100.0 * ranked as f64 / total.max(1) as f64
    );
    println!("World entries: {}", c.world_len());

    // Structural census (generator sanity; Sections II-A / III-A claims).
    use kyp_datagen::stats::PageSetStats;
    let phish_urls: Vec<String> = c.phish_test.iter().map(|r| r.url.clone()).collect();
    println!();
    println!("Structural statistics:");
    println!(
        "  phishTest : {}",
        PageSetStats::from_urls(&c.world, &phish_urls).summary_line()
    );
    println!(
        "  English   : {}",
        PageSetStats::from_urls(&c.world, c.english_test()).summary_line()
    );
}
