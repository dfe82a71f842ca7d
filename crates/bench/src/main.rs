//! `nicbar-bench <command> [flags]` — every evaluation command behind one
//! front end. `nicbar-bench help` lists the commands; the command table
//! and the flag parser live in [`cli`].

mod cli;

mod cmd {
    pub mod ablation;
    pub mod algo_compare;
    pub mod contend;
    pub mod engine_prof;
    pub mod engine_sweep;
    pub mod fig5;
    pub mod fig6;
    pub mod fig7;
    pub mod fig8;
    pub mod fig_scale;
    pub mod flight;
    pub mod interference;
    pub mod table1;
    pub mod topology_sensitivity;
    pub mod variance;
    pub mod why_slow;
}

fn main() {
    cli::main();
}
