//! The C4CAM compilation pipeline (paper Fig. 3).
//!
//! [`C4camPipeline`] assembles the pass sequence for a given
//! [`ArchSpec`] and compiles a torch-level module either down to the
//! `cam` dialect (device path, default) or to the partitioned `cim`
//! form (host/loops path — the paper's "lower to loops, and optimize"
//! branch, which our host interpreter executes directly).
//!
//! The pass list splits at the `cim-fused` seam. The prefix
//! (`torch-to-cim`, `cim-fuse-ops`) reads nothing of the architecture;
//! the suffix (`cam-map` or `cim-partition`) is where the spec enters.
//! [`C4camPipeline::compile`] runs one after the other, and a caller that
//! targets many specs with one module — a design-space sweep — runs
//! [`C4camPipeline::lower_prefix`] once and [`C4camPipeline::lower_suffix`]
//! per spec on clones of its result.

use c4cam_arch::ArchSpec;
use c4cam_ir::pass::{Pass, PassError, PassManager, PassTiming};
use c4cam_ir::print::print_module;
use c4cam_ir::verify::verify_module;
use c4cam_ir::Module;

use crate::dialects::shared_registry;
use crate::passes::{CamMapPass, CimFusePass, CimPartitionPass, TorchToCimPass};

/// Which backend the pipeline lowers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Target {
    /// Lower to the `cam` dialect for the CAM simulator (default).
    #[default]
    CamDevice,
    /// Stop at the partitioned `cim` form (host loops backend).
    HostLoops,
}

/// Pipeline configuration; the default is the device target without
/// snapshots.
#[derive(Debug, Clone, Default)]
pub struct PipelineOptions {
    /// Record a textual IR snapshot after every stage (for `ir_tour` and
    /// FileCheck-style tests).
    pub keep_snapshots: bool,
    /// Lowering target.
    pub target: Target,
}

/// Result of a pipeline run (or of its prefix alone).
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The lowered module.
    pub module: Module,
    /// `(stage name, IR text)` snapshots, if requested.
    pub snapshots: Vec<(String, String)>,
    /// Per-pass wall-clock timings.
    pub timings: Vec<PassTiming>,
}

/// The C4CAM compiler driver.
#[derive(Debug, Clone)]
pub struct C4camPipeline {
    spec: ArchSpec,
    options: PipelineOptions,
}

impl C4camPipeline {
    /// Pipeline for an architecture with default options.
    pub fn new(spec: ArchSpec) -> C4camPipeline {
        C4camPipeline {
            spec,
            options: PipelineOptions::default(),
        }
    }

    /// Override the options.
    pub fn with_options(mut self, options: PipelineOptions) -> C4camPipeline {
        self.options = options;
        self
    }

    /// The architecture this pipeline targets.
    pub fn spec(&self) -> &ArchSpec {
        &self.spec
    }

    /// Names of the passes that will run, in order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        let mut passes = prefix_passes();
        passes.push(self.suffix_pass());
        passes.iter().map(|p| p.name()).collect()
    }

    /// The per-spec pass that follows the prefix.
    fn suffix_pass(&self) -> Box<dyn Pass> {
        let spec = self.spec.clone();
        match self.options.target {
            Target::CamDevice => Box::new(CamMapPass { spec }),
            Target::HostLoops => Box::new(CimPartitionPass { spec }),
        }
    }

    /// Compile a torch-level module: [`C4camPipeline::lower_prefix`],
    /// then [`C4camPipeline::lower_suffix`].
    ///
    /// # Errors
    /// Propagates the first pass or verification failure.
    pub fn compile(&self, module: Module) -> Result<CompiledKernel, PassError> {
        self.lower_suffix(self.lower_prefix(module)?)
    }

    /// Verify a torch-level module and lower it to the `cim-fused` seam
    /// (`torch-to-cim`, `cim-fuse-ops`, each verified). Nothing here
    /// reads the spec, so the result serves every architecture.
    ///
    /// # Errors
    /// Propagates the first pass or verification failure.
    pub fn lower_prefix(&self, module: Module) -> Result<CompiledKernel, PassError> {
        let mut kernel = CompiledKernel {
            module,
            snapshots: Vec::new(),
            timings: Vec::new(),
        };
        if self.options.keep_snapshots {
            let torch = print_module(&kernel.module);
            kernel.snapshots.push(("torch".to_string(), torch));
        }
        verify_module(&kernel.module, &shared_registry())
            .map_err(|e| PassError::new("input-verify", e.to_string()))?;
        self.run_passes(&mut kernel, prefix_passes())?;
        Ok(kernel)
    }

    /// Finish a kernel [`C4camPipeline::lower_prefix`] produced: the
    /// target's per-spec pass (`cam-map` or `cim-partition`), verified.
    ///
    /// # Errors
    /// Propagates the pass or verification failure.
    pub fn lower_suffix(&self, mut kernel: CompiledKernel) -> Result<CompiledKernel, PassError> {
        self.run_passes(&mut kernel, vec![self.suffix_pass()])?;
        Ok(kernel)
    }

    /// Run `passes` in order, verifying after each, and append their
    /// timings (and snapshots, if kept) to `kernel`.
    fn run_passes(
        &self,
        kernel: &mut CompiledKernel,
        passes: Vec<Box<dyn Pass>>,
    ) -> Result<(), PassError> {
        for pass in passes {
            let mut pm = PassManager::new();
            pm.add(pass);
            pm.verify_each(shared_registry());
            pm.run(&mut kernel.module)?;
            kernel.timings.extend(pm.timings().iter().cloned());
            if self.options.keep_snapshots {
                let name = kernel.timings.last().map(|t| t.name).unwrap_or("?");
                let text = print_module(&kernel.module);
                kernel.snapshots.push((name.to_string(), text));
            }
        }
        Ok(())
    }
}

/// The geometry-free passes, in order.
fn prefix_passes() -> Vec<Box<dyn Pass>> {
    vec![Box::new(TorchToCimPass), Box::new(CimFusePass)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialects::torch;
    use c4cam_arch::Optimization;

    fn spec() -> ArchSpec {
        ArchSpec::builder()
            .subarray(32, 32)
            .optimization(Optimization::Base)
            .build()
            .unwrap()
    }

    #[test]
    fn device_pipeline_lowers_hdc_to_cam() {
        let mut m = Module::new();
        torch::build_hdc_dot(&mut m, 2, 10, 1024, 1);
        let compiled = C4camPipeline::new(spec()).compile(m).unwrap();
        let text = print_module(&compiled.module);
        assert!(text.contains("cam.search"));
        assert!(!text.contains("torch."));
        assert_eq!(compiled.timings.len(), 3);
    }

    #[test]
    fn host_pipeline_stops_at_partitioned_cim() {
        let mut m = Module::new();
        torch::build_hdc_dot(&mut m, 2, 10, 1024, 1);
        let pipeline = C4camPipeline::new(spec()).with_options(PipelineOptions {
            target: Target::HostLoops,
            ..PipelineOptions::default()
        });
        let compiled = pipeline.compile(m).unwrap();
        let text = print_module(&compiled.module);
        assert!(text.contains("cim.similarity_scores"));
        assert!(!text.contains("cam."));
    }

    #[test]
    fn snapshots_record_every_stage() {
        let mut m = Module::new();
        torch::build_hdc_dot(&mut m, 2, 10, 1024, 1);
        let pipeline = C4camPipeline::new(spec()).with_options(PipelineOptions {
            keep_snapshots: true,
            ..PipelineOptions::default()
        });
        let compiled = pipeline.compile(m).unwrap();
        let stages: Vec<&str> = compiled.snapshots.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            stages,
            vec!["torch", "torch-to-cim", "cim-fuse-ops", "cam-map"]
        );
        // Fig. 5a: the torch-to-cim snapshot shows acquire/execute.
        assert!(compiled.snapshots[1].1.contains("cim.acquire"));
        // Fig. 5c: the fused snapshot shows cim.similarity.
        assert!(compiled.snapshots[2].1.contains("cim.similarity"));
        // Fig. 6: the mapped snapshot shows the hierarchy loops.
        assert!(compiled.snapshots[3].1.contains("cam.alloc_bank"));
        assert!(compiled.snapshots[3].1.contains("scf.parallel"));
    }

    #[test]
    fn one_prefix_serves_every_spec() {
        let mut m = Module::new();
        torch::build_hdc_dot(&mut m, 2, 10, 1024, 1);
        let fused = C4camPipeline::new(spec()).lower_prefix(m.clone()).unwrap();
        let ran: Vec<&str> = fused.timings.iter().map(|t| t.name).collect();
        assert_eq!(ran, vec!["torch-to-cim", "cim-fuse-ops"]);
        for (n, opt) in [(16, Optimization::Power), (64, Optimization::Density)] {
            let other = ArchSpec::builder()
                .subarray(n, n)
                .optimization(opt)
                .build()
                .unwrap();
            let pipeline = C4camPipeline::new(other);
            let split = pipeline.lower_suffix(fused.clone()).unwrap();
            let whole = pipeline.compile(m.clone()).unwrap();
            assert_eq!(print_module(&split.module), print_module(&whole.module));
            assert_eq!(split.timings.len(), 3);
        }
    }

    #[test]
    fn malformed_input_is_rejected_before_passes() {
        let mut m = Module::new();
        // A func with a bogus op that fails registry verification.
        let (_, entry) = c4cam_ir::builder::build_func(&mut m, "f", &[], &[]);
        let mut b = c4cam_ir::builder::OpBuilder::at_end(&mut m, entry);
        b.op("bogus.op", &[], &[], vec![]);
        b.op("func.return", &[], &[], vec![]);
        let e = C4camPipeline::new(spec()).compile(m).unwrap_err();
        assert_eq!(e.pass, "input-verify");
    }

    #[test]
    fn pass_names_reflect_target() {
        // For both targets the passes that ran are exactly the ones
        // `pass_names` lists: nothing optional runs beside them.
        for (target, last) in [
            (Target::CamDevice, "cam-map"),
            (Target::HostLoops, "cim-partition"),
        ] {
            let p = C4camPipeline::new(spec()).with_options(PipelineOptions {
                target,
                ..PipelineOptions::default()
            });
            assert_eq!(p.pass_names(), vec!["torch-to-cim", "cim-fuse-ops", last]);
            let mut m = Module::new();
            torch::build_hdc_dot(&mut m, 2, 10, 1024, 1);
            let compiled = p.compile(m).unwrap();
            let ran: Vec<&str> = compiled.timings.iter().map(|t| t.name).collect();
            assert_eq!(ran, p.pass_names(), "{target:?}");
        }
    }
}
