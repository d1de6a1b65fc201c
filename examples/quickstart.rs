//! Quickstart: compile the paper's Fig. 4a TorchScript kernel and run it
//! on the simulated CAM accelerator.
//!
//! ```text
//! cargo run --example quickstart --release [-- --engine tape|walk]
//! ```
//!
//! The default engine is the flat CAM-ISA tape; any name registered in
//! the [`c4cam::hal::BackendRegistry`] works. Every backend produces
//! identical results and identical statistics.

use c4cam::arch::ArchSpec;
use c4cam::compiler::C4camPipeline;
use c4cam::frontend::{parse_torchscript, FrontendConfig};
use c4cam::hal::{BackendRegistry, ExecOptions};
use c4cam::runtime::Value;
use c4cam::tensor::Tensor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut engine = "tape".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--engine" {
            let v = it.next().ok_or("--engine requires a value")?;
            engine = v.clone();
        }
    }
    // 1. The TorchScript program (the paper's HDC dot-similarity).
    let source = r#"
def forward(self, input: Tensor) -> Tensor:
    others = self.weight.transpose(-2, -1)
    matmul = torch.matmul(input, (others))
    values, indices = torch.ops.aten.topk(matmul, 1, largest=True)
    return values, indices
"#;

    // 2. Shapes: 4 queries of 256-dim hypervectors vs 8 stored classes.
    let config = FrontendConfig::new()
        .input(vec![4, 256])
        .parameter("weight", vec![8, 256]);
    let lowered = parse_torchscript(source, &config)?;
    println!(
        "parsed '{}' with args {:?}",
        lowered.name, lowered.arg_order
    );

    // 3. The architecture specification (paper §III-B).
    let spec = ArchSpec::builder()
        .subarray(32, 32)
        .hierarchy(4, 4, 8)
        .build()?;
    println!("\narchitecture:\n{}", spec.to_text());

    // 4. Compile torch → cim → cam.
    let compiled = C4camPipeline::new(spec.clone()).compile(lowered.module)?;
    println!(
        "pipeline ran: {:?}",
        compiled.timings.iter().map(|t| t.name).collect::<Vec<_>>()
    );

    // 5. Data: class 3's hypervector, noiselessly queried.
    let mut stored = Vec::new();
    for c in 0..8 {
        for d in 0..256 {
            stored.push(f32::from(u8::from((d * 13 + c * 17) % 8 < 3)));
        }
    }
    let stored = Tensor::from_vec(vec![8, 256], stored)?;
    let mut queries = Tensor::zeros(vec![4, 256]);
    for q in 0..4 {
        let class = q * 2 + 1; // classes 1, 3, 5, 7
        let row = stored.slice2d(class, 0, 1, 256)?;
        queries.insert2d(&row, q, 0)?;
    }

    // 6. Execute through the backend HAL: resolve the name in the
    //    registry, compile a plan, run it.
    let backend = BackendRegistry::global().get(&engine)?;
    println!("\nengine: {} ({})", backend.name(), backend.description());
    let plan = backend.compile(&compiled.module, "forward", &spec)?;
    let run_args = [Value::Tensor(queries), Value::Tensor(stored)];
    let execution = plan.execute(&run_args, &ExecOptions::sequential())?;
    let indices = execution.outputs[1].as_tensor().expect("indices tensor");
    println!("\npredicted classes: {:?}", indices.data());
    assert_eq!(indices.data(), &[1.0, 3.0, 5.0, 7.0]);

    // 7. What did it cost?
    println!("\nsimulator statistics:\n{}", execution.stats);
    Ok(())
}
