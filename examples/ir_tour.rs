//! IR tour: show the program at every abstraction level of the
//! progressive lowering (the paper's Fig. 4b → 5a → 5c → 6 sequence).
//!
//! ```text
//! cargo run --example ir_tour
//! ```

use c4cam::arch::ArchSpec;
use c4cam::compiler::pipeline::{C4camPipeline, PipelineOptions, Target};
use c4cam::frontend::{parse_torchscript, FrontendConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = r#"
def forward(self, input: Tensor) -> Tensor:
    others = self.weight.transpose(-2, -1)
    matmul = torch.matmul(input, (others))
    values, indices = torch.ops.aten.topk(matmul, 1, largest=False)
    return values, indices
"#;
    // Small shapes keep the printed IR readable.
    let config = FrontendConfig::new()
        .input(vec![2, 128])
        .parameter("weight", vec![10, 128]);
    let lowered = parse_torchscript(source, &config)?;

    let spec = ArchSpec::builder()
        .subarray(32, 32)
        .hierarchy(2, 2, 2)
        .build()?;

    println!("==== TorchScript source =================================");
    println!("{source}");

    let compiled = C4camPipeline::new(spec.clone())
        .with_options(PipelineOptions {
            keep_snapshots: true,
            ..PipelineOptions::default()
        })
        .compile(lowered.module.clone())?;
    for (stage, text) in &compiled.snapshots {
        println!(
            "==== after {stage} {}",
            "=".repeat(44usize.saturating_sub(stage.len()))
        );
        println!("{text}");
    }

    // The host path stops at the partitioned cim form (Fig. 5d).
    let host = C4camPipeline::new(spec)
        .with_options(PipelineOptions {
            keep_snapshots: true,
            target: Target::HostLoops,
        })
        .compile(lowered.module)?;
    if let Some((stage, text)) = host.snapshots.last() {
        println!("==== host path, after {stage} (Fig. 5d analogue) ====");
        println!("{text}");
    }
    Ok(())
}
