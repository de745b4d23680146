//! Regenerates `tables_output.txt`: the paper's evaluation tables and
//! figures plus this repo's deterministic sections.
//!
//! ```text
//! tables            # every section, in file order
//! tables 3 hier     # only the named sections
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = args
        .iter()
        .find(|a| !bench::SECTIONS.iter().any(|(key, _)| key == a))
    {
        let keys: Vec<&str> = bench::SECTIONS.iter().map(|(key, _)| *key).collect();
        eprintln!(
            "tables: no section {unknown:?}\nusage: tables [{}]...",
            keys.join("|")
        );
        std::process::exit(2);
    }
    for (key, section) in bench::SECTIONS {
        if args.is_empty() || args.iter().any(|a| a == key) {
            eprintln!("[tables] generating {key}...");
            println!("{}", section().render());
        }
    }
}
