//! The Figure 5 walkthrough: a step-by-step Spectre-v1 attack (Listing 1)
//! against the unprotected machine and against SpecASan, narrating what the
//! ROB / LQ / L1D$ see at each stage.
//!
//! ```sh
//! cargo run --release --example spectre_v1_walkthrough
//! ```

use sas_attacks::{layout, oracle, spectre, GadgetFlavor};
use specasan::{build_system, Mitigation, SimConfig};

fn main() {
    let cfg = SimConfig::table2();

    println!("Victim memory layout (Figure 5's cache rows):");
    println!("  ARRAY1      @ {:#x}, 16 B, lock 0x{:x}", layout::ARRAY1, layout::ARRAY1_KEY);
    println!(
        "  SECRET      @ {:#x}, value {:#04x}, lock 0x{:x}",
        layout::SECRET_ADDR,
        layout::SECRET,
        layout::SECRET_KEY
    );
    println!("  ARRAY1_SIZE @ {:#x} = 8", layout::SIZE_ADDR);
    println!("  PROBE       @ {:#x} (Flush+Reload array)", layout::PROBE);
    println!();

    for m in [Mitigation::Unsafe, Mitigation::SpecAsan] {
        println!("================ {m} ================");
        println!("step 1  Train: 12 in-bounds passes teach the PHT \"X < ARRAY1_SIZE\".");
        println!("step 2  Flush ARRAY1_SIZE: the attack-run bounds check will");
        println!("        resolve only after a DRAM round trip (the window).");
        println!("step 3  Attack: X = {:#x} (out of bounds). The mistrained branch",
            layout::SECRET_ADDR - layout::ARRAY1);
        println!("        speculates into the gadget:");
        println!("          LDR  X5, [X2, X0]     ; ACCESS  — key 0x3 vs lock 0x9");
        println!("          LSL  X6, X5, #6       ; USE");
        println!("          LDR  X8, [X3, X6]     ; TRANSMIT — probe[secret * 64]");

        let program = spectre::spectre_v1_program(&cfg, GadgetFlavor::TagViolating);
        let mut sys = build_system(&cfg, program, m);
        sys.enable_telemetry(1024, 1_000_000);
        layout::install_victim(&mut sys);
        let exit = sys.run(3_000_000).exit;
        let stats = sys.core(0).stats.clone();
        let mem = sys.mem().stats();

        match m {
            Mitigation::Unsafe => {
                println!("step 4  The L1D returns the secret to the LQ — no tag check.");
                println!("step 5  TRANSMIT fills probe[{:#x}].", layout::SECRET << 6);
                println!("step 6  Branch resolves, gadget squashes — but the fill remains.");
            }
            _ => {
                println!("step 4  L1D tag check: key 0x3 != lock 0x9 — the response");
                println!("        carries !S and *no data* (Figure 5 step 2).");
                println!("step 5  TSH: tcs -> unsafe; ROB notified (SSA=0); the load and");
                println!("        its dependents stall (Figure 5, entries marked !S).");
                println!("step 6  Branch resolves as mispredicted: the unsafe load and its");
                println!("        dependents are flushed without a trace (Figure 5 step 3).");
            }
        }

        let leaked = oracle::secret_probe_hot(&sys);
        println!();
        println!("  exit                     : {exit:?}");
        println!("  probe[secret*64] cached  : {leaked}   <- the Flush+Reload observation");
        println!("  unsafe spec accesses     : {}", stats.unsafe_spec_accesses);
        println!("  suppressed fills         : {}", mem.suppressed_fills);
        println!("  squashed instructions    : {}", stats.squashed);
        println!();

        // The machine's own account of the attack window: each access whose
        // unsafe tag check made the TSH withhold the data, and its fate.
        let timeline = sys.timeline(0).expect("telemetry is enabled");
        let blocked: Vec<_> =
            timeline.records().iter().filter(|r| r.unsafe_block.is_some()).collect();
        if !blocked.is_empty() {
            println!("  timeline (unsafe tag check -> TSH block -> squash):");
            for r in blocked.iter().rev().take(6).rev() {
                let fate = match (r.commit, r.squashed) {
                    (Some(c), _) => format!("committed @{c}"),
                    (None, Some(q)) => format!("squashed @{q}"),
                    (None, None) => "in flight".to_string(),
                };
                println!(
                    "    seq {:<6} pc {:#06x}  {:<22} issued @{}  blocked @{}  {fate}",
                    r.seq,
                    r.pc,
                    r.disasm,
                    r.issue.unwrap_or_default(),
                    r.unsafe_block.unwrap_or_default(),
                );
            }
            println!();
        }

        match m {
            Mitigation::Unsafe => assert!(leaked, "baseline must leak"),
            _ => assert!(!leaked, "SpecASan must block the leak"),
        }
    }
    println!("Conclusion: identical program, identical speculation — but SpecASan's");
    println!("tag check travels with the access and the mismatch never becomes");
    println!("microarchitectural state. (§4.1, Figure 5.)");
}
