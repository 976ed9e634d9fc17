//! A campaign is a function of its seed alone: a fault seed left in the
//! environment must not change it. The file holds one test, so it is the only
//! thread in its binary and setting the variable races with nothing.

use specasan::chaos::{run_campaign, Class};

#[test]
fn a_fault_seed_in_the_environment_changes_no_campaign() {
    // A snapshot-corruption campaign arms no plan of its own, so any plan
    // armed from the environment would change the image it corrupts.
    let seed = 0x9e37_79ba_43ea_db04;
    assert_eq!(Class::of(seed), Class::SnapCorrupt);
    let clean = run_campaign(seed);
    std::env::set_var("SAS_FAULT_SEED", "42");
    let with_env = run_campaign(seed);
    assert_eq!(clean, with_env, "SAS_FAULT_SEED changed campaign {seed:#x}");
}
