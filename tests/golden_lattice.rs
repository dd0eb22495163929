//! The cross-commit proof: every cell of assembly {stored, matrix-free} ×
//! mode {cpu-serial, cpu-parallel(2), gpu base, gpu, gpu+gpu_pcg, hybrid}
//! in 2D-Q2 and 3D-Q2 takes a few Sedov steps and must land on a committed
//! triple of (checkpoint CRC-32 footer, simulated wall-clock bits, host+GPU
//! trace-energy bits). A refactor of the force evaluation that changes any
//! physics bit, or the order or arguments of any billed phase / launch /
//! transfer / idle, changes a row.
//!
//! The rows depend on whether the fused-multiply-add clones of the tiled
//! GEMM and the streaming kernels are live, so there is one table for the
//! FMA regime (any AVX2+FMA or AVX-512 host) and one for the scalar regime
//! (`BLAST_SIMD=0`); the two share one level, so there is no third case.
//! Within a regime the rows are invariant under `BLAST_THREADS`.
//!
//! To re-record after an *intended* trajectory change, copy the table the
//! failure message prints.

use std::sync::Arc;

use blast_repro::blast_core::{AssemblyMode, ExecMode, Executor, Hydro, HydroError, Sedov};
use blast_repro::blast_la::tile;
use blast_repro::gpu_sim::{CpuSpec, DeviceCatalog, GpuDevice};

const STEPS: usize = 3;

/// `(cell, checkpoint CRC-32, wall_time bits, trace energy bits)`.
type Row = (&'static str, u32, u64, u64);

#[rustfmt::skip]
const GOLDEN_FMA: &[Row] = &[
    ("2d_q2/stored/cpu_serial", 0xb47906ba, 0x3f5bfffebc92c4a5, 0x3faaf5fec893525c),
    ("2d_q2/stored/cpu_parallel2", 0xb47906ba, 0x3f4dd7f118a8bdf6, 0x3fa3a4a230bb110a),
    ("2d_q2/stored/gpu_base", 0xb47906ba, 0x3f67534a8ed32294, 0x3fd05396dbb186c4),
    ("2d_q2/stored/gpu", 0xb47906ba, 0x3f5c44844af8bd9d, 0x3fbc9432d0ce6f42),
    ("2d_q2/stored/gpu_pcg", 0xb47906ba, 0x3f93448b4fb49704, 0x3ff5121c06dcb4f7),
    ("2d_q2/stored/hybrid", 0xb47906ba, 0x3f32942ec79b9726, 0x3fa2681bd6f66bde),
    ("2d_q2/matfree/cpu_serial", 0xd0351b14, 0x3f5cb0e55b135ee5, 0x3faba054d83226de),
    ("2d_q2/matfree/cpu_parallel2", 0xd0351b14, 0x3f4d998e50a36bf2, 0x3fa37b922c13908e),
    ("2d_q2/matfree/gpu", 0xd0351b14, 0x3f597128b33d5563, 0x3fb60e78ba8ac3d8),
    ("2d_q2/matfree/gpu_pcg", 0xd0351b14, 0x3f504084937f465c, 0x3fb2141830e7ed6e),
    ("2d_q2/matfree/hybrid", 0xd0351b14, 0x3f31faf928006918, 0x3fa109b56beaee92),
    ("3d_q2/stored/cpu_serial", 0x15735c34, 0x3f9b30ad2350077d, 0x3fea2e5eb6808f34),
    ("3d_q2/stored/cpu_parallel2", 0x15735c34, 0x3f8be4045ca68241, 0x3fe25b94defb98bb),
    ("3d_q2/stored/gpu_base", 0x15735c34, 0x3f960e9f12bf9a3b, 0x3ffeacc6c4649580),
    ("3d_q2/stored/gpu", 0x15735c34, 0x3f7611ffd159347e, 0x3fd4fc086129b842),
    ("3d_q2/stored/gpu_pcg", 0x15735c34, 0x3fb251defa5f5ce7, 0x40144936a84175fa),
    ("3d_q2/stored/hybrid", 0x15735c34, 0x3f60884be13fa3aa, 0x3fd0c154fd023fe1),
    ("3d_q2/matfree/cpu_serial", 0x27521d5d, 0x3f8c6d29f8c1e676, 0x3fdb5f1cea06b467),
    ("3d_q2/matfree/cpu_parallel2", 0x27521d5d, 0x3f7d256a3ffbab3e, 0x3fd32f206f1d2636),
    ("3d_q2/matfree/gpu", 0x27521d5d, 0x3f79c0c11e7523db, 0x3fd4cbc5c00dbe4d),
    ("3d_q2/matfree/gpu_pcg", 0x27521d5d, 0x3f62d458214289ec, 0x3fc6cdbb7654ed46),
    ("3d_q2/matfree/hybrid", 0x27521d5d, 0x3f5603d4173ee849, 0x3fc3e08af8cff12e),
];

#[rustfmt::skip]
const GOLDEN_SCALAR: &[Row] = &[
    ("2d_q2/stored/cpu_serial", 0x239eb1bd, 0x3f5bfffebc92c4a5, 0x3faaf5fec893525c),
    ("2d_q2/stored/cpu_parallel2", 0x239eb1bd, 0x3f4dd7f118a8bdf6, 0x3fa3a4a230bb110a),
    ("2d_q2/stored/gpu_base", 0x239eb1bd, 0x3f67534a8ed32294, 0x3fd05396dbb186c4),
    ("2d_q2/stored/gpu", 0x239eb1bd, 0x3f5c44844af8bd9d, 0x3fbc9432d0ce6f42),
    ("2d_q2/stored/gpu_pcg", 0x239eb1bd, 0x3f93448b4fb49704, 0x3ff5121c06dcb4f7),
    ("2d_q2/stored/hybrid", 0x239eb1bd, 0x3f32942ec79b9726, 0x3fa2681bd6f66bde),
    ("2d_q2/matfree/cpu_serial", 0xe2cdd600, 0x3f5cb0e55b135ee5, 0x3faba054d83226de),
    ("2d_q2/matfree/cpu_parallel2", 0xe2cdd600, 0x3f4d998e50a36bf2, 0x3fa37b922c13908e),
    ("2d_q2/matfree/gpu", 0xe2cdd600, 0x3f597128b33d5563, 0x3fb60e78ba8ac3d8),
    ("2d_q2/matfree/gpu_pcg", 0xe2cdd600, 0x3f504084937f465c, 0x3fb2141830e7ed6e),
    ("2d_q2/matfree/hybrid", 0xe2cdd600, 0x3f31faf928006918, 0x3fa109b56beaee92),
    ("3d_q2/stored/cpu_serial", 0xdbb9047c, 0x3f9b30ad2350077d, 0x3fea2e5eb6808f34),
    ("3d_q2/stored/cpu_parallel2", 0xdbb9047c, 0x3f8be4045ca68241, 0x3fe25b94defb98bb),
    ("3d_q2/stored/gpu_base", 0xdbb9047c, 0x3f960e9f12bf9a3b, 0x3ffeacc6c4649580),
    ("3d_q2/stored/gpu", 0xdbb9047c, 0x3f7611ffd159347e, 0x3fd4fc086129b842),
    ("3d_q2/stored/gpu_pcg", 0xdbb9047c, 0x3fb251defa5f5ce7, 0x40144936a84175fa),
    ("3d_q2/stored/hybrid", 0xdbb9047c, 0x3f60884be13fa3aa, 0x3fd0c154fd023fe1),
    ("3d_q2/matfree/cpu_serial", 0x62b384c7, 0x3f8c7616af3384c8, 0x3fdb67b4d7b31b59),
    ("3d_q2/matfree/cpu_parallel2", 0x62b384c7, 0x3f7d2e88fe28c49e, 0x3fd335212b49d56a),
    ("3d_q2/matfree/gpu", 0x62b384c7, 0x3f79d29a8b58607d, 0x3fd4d8fe6d559017),
    ("3d_q2/matfree/gpu_pcg", 0x62b384c7, 0x3f62dbb6bbec4f06, 0x3fc6d749ac915e18),
    ("3d_q2/matfree/hybrid", 0x62b384c7, 0x3f561127edab2336, 0x3fc3ebb90cef3b9c),
];

const MODES: [(&str, ExecMode); 6] = [
    ("cpu_serial", ExecMode::CpuSerial),
    ("cpu_parallel2", ExecMode::CpuParallel { threads: 2 }),
    ("gpu_base", ExecMode::Gpu { base: true, gpu_pcg: false, mpi_queues: 1 }),
    ("gpu", ExecMode::Gpu { base: false, gpu_pcg: false, mpi_queues: 1 }),
    ("gpu_pcg", ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 }),
    ("hybrid", ExecMode::Hybrid { threads: 6 }),
];

fn run_cell<const D: usize>(
    zones: [usize; D],
    assembly: AssemblyMode,
    mode: ExecMode,
) -> Result<(u32, u64, u64), HydroError> {
    let needs_gpu = matches!(mode, ExecMode::Gpu { .. } | ExecMode::Hybrid { .. });
    let gpu = needs_gpu.then(|| Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20"))));
    let on_pool = matches!(mode, ExecMode::CpuParallel { .. });
    let run = || {
        let problem = Sedov::default();
        let mut hydro = Hydro::<D>::builder(&problem, zones)
            .order(2)
            .assembly(assembly)
            .executor(Executor::new(mode, CpuSpec::e5_2670(), gpu))
            .build()?;
        let mut state = hydro.initial_state();
        let mut dt = hydro.try_suggest_dt(&state)?;
        let mut redos = 0;
        for _ in 0..STEPS {
            let adv = hydro.try_advance(&mut state, dt)?;
            dt = adv.dt_next;
            redos += adv.redos;
        }
        let image = hydro.make_checkpoint(&state, dt, STEPS as u64, redos as u64).to_bytes();
        let crc = u32::from_le_bytes(image[image.len() - 4..].try_into().expect("4-byte footer"));
        let end = hydro.wall_time();
        let exec = hydro.executor();
        let joules = exec.host.power_trace().energy(0.0, end)
            + exec.gpu.as_ref().map_or(0.0, |g| g.power_trace().energy(0.0, end));
        Ok((crc, end.to_bits(), joules.to_bits()))
    };
    // The parallel cell runs on a real 2-thread pool; every other cell on
    // whatever `BLAST_THREADS` provides.
    if on_pool {
        rayon::Pool::new(2).install(run)
    } else {
        run()
    }
}

#[test]
fn every_assembly_mode_cell_matches_the_committed_table() {
    let golden = if tile::fma_active() { GOLDEN_FMA } else { GOLDEN_SCALAR };
    let mut actual: Vec<(String, u32, u64, u64)> = Vec::new();
    for dim in [2usize, 3] {
        for (aname, assembly) in
            [("stored", AssemblyMode::Stored), ("matfree", AssemblyMode::MatrixFree)]
        {
            for (mname, mode) in MODES {
                // The monolithic base kernel exists for the stored pipeline only.
                if mname == "gpu_base" && assembly == AssemblyMode::MatrixFree {
                    continue;
                }
                let cell = format!("{dim}d_q2/{aname}/{mname}");
                let (crc, wall, joules) = match dim {
                    2 => run_cell::<2>([6, 6], assembly, mode),
                    _ => run_cell::<3>([3, 3, 3], assembly, mode),
                }
                .unwrap_or_else(|e| panic!("{cell}: {e}"));
                actual.push((cell, crc, wall, joules));
            }
        }
    }
    let matches = actual.len() == golden.len()
        && actual.iter().zip(golden.iter()).all(|(a, g)| (a.0.as_str(), a.1, a.2, a.3) == *g);
    if !matches {
        let mut table = String::new();
        for (i, (cell, crc, wall, joules)) in actual.iter().enumerate() {
            let mark = if golden.get(i).is_some_and(|g| (cell.as_str(), *crc, *wall, *joules) == *g)
            {
                ""
            } else {
                " // differs"
            };
            table.push_str(&format!(
                "    (\"{cell}\", 0x{crc:08x}, 0x{wall:016x}, 0x{joules:016x}),{mark}\n"
            ));
        }
        panic!("golden lattice mismatch; the table this build produces:\n{table}");
    }
}
