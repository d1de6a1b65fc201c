//! The C4CAM compilation pipeline (paper Fig. 3).
//!
//! [`C4camPipeline`] assembles the pass sequence for a given
//! [`ArchSpec`] and compiles a torch-level module either down to the
//! `cam` dialect (device path, default) or to the partitioned `cim`
//! form (host/loops path — the paper's "lower to loops, and optimize"
//! branch, which our host interpreter executes directly).

use c4cam_arch::ArchSpec;
use c4cam_ir::pass::{Pass, PassError, PassManager, PassTiming};
use c4cam_ir::print::print_module;
use c4cam_ir::verify::verify_module;
use c4cam_ir::Module;
use std::sync::Arc;

use crate::dialects::standard_registry;
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

/// Result of a pipeline run.
#[derive(Debug)]
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
        match self.options.target {
            Target::CamDevice => vec!["torch-to-cim", "cim-fuse-ops", "cam-map"],
            Target::HostLoops => vec!["torch-to-cim", "cim-fuse-ops", "cim-partition"],
        }
    }

    /// Compile a torch-level module.
    ///
    /// # Errors
    /// Propagates the first pass or verification failure.
    pub fn compile(&self, mut module: Module) -> Result<CompiledKernel, PassError> {
        let registry = Arc::new(standard_registry());
        let mut snapshots = Vec::new();
        if self.options.keep_snapshots {
            snapshots.push(("torch".to_string(), print_module(&module)));
        }
        verify_module(&module, &registry)
            .map_err(|e| PassError::new("input-verify", e.to_string()))?;

        let passes: Vec<Box<dyn Pass>> = match self.options.target {
            Target::CamDevice => vec![
                Box::new(TorchToCimPass),
                Box::new(CimFusePass),
                Box::new(CamMapPass {
                    spec: self.spec.clone(),
                }),
            ],
            Target::HostLoops => vec![
                Box::new(TorchToCimPass),
                Box::new(CimFusePass),
                Box::new(CimPartitionPass {
                    spec: self.spec.clone(),
                }),
            ],
        };

        let mut timings = Vec::new();
        for pass in passes {
            let mut pm = PassManager::new();
            pm.add(pass);
            pm.verify_each(registry.clone());
            pm.run(&mut module)?;
            timings.extend(pm.timings().iter().cloned());
            if self.options.keep_snapshots {
                let name = timings.last().map(|t| t.name).unwrap_or("?");
                snapshots.push((name.to_string(), print_module(&module)));
            }
        }
        Ok(CompiledKernel {
            module,
            snapshots,
            timings,
        })
    }
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
