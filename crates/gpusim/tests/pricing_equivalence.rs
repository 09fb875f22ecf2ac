//! Bit-identity of memoized pricing: for arbitrary kernel streams, a `Gpu`
//! answering from the cross-run pricing memo (cold or warm) must produce
//! exactly the stats `Gpu::reference` computes fresh — including streams
//! with L2 reuse between kernels, where `read_scale` varies with shared
//! cache state and must be part of the fingerprint.

use resoftmax_gpusim::{
    DeviceSpec, Gpu, KernelCategory, KernelDesc, KernelStats, TbGroup, TbShape, TbWork,
};

/// Launches the stream on `gpu`, returning every per-kernel stat.
fn run(mut gpu: Gpu, kernels: &[KernelDesc]) -> Vec<KernelStats> {
    kernels
        .iter()
        .map(|k| gpu.launch(k).expect("launch"))
        .collect()
}

/// Reference, memo-cold and memo-warm runs must agree to the bit.
fn assert_cache_transparent(device: &DeviceSpec, kernels: &[KernelDesc]) {
    let fresh = run(Gpu::reference(device.clone()), kernels);
    let cold = run(Gpu::new(device.clone()), kernels);
    let warm = run(Gpu::new(device.clone()), kernels);
    assert_eq!(fresh, cold, "cold memoized run diverges from the reference");
    assert_eq!(fresh, warm, "warm memoized run diverges from the reference");
}

/// A deterministic stream covering all three grid forms and an L2
/// producer/consumer pair. Small enough to run under miri, where it is the
/// end-to-end exercise of the memo's lookup/insert paths.
#[test]
fn deterministic_stream_is_cache_transparent() {
    let shape = TbShape::new(256, 0, 32);
    let uniform = KernelDesc::builder("u", KernelCategory::Softmax)
        .shape(shape)
        .uniform(500, TbWork::memory(32_768.0, 8_192.0))
        .build();
    let grouped = KernelDesc::builder("g", KernelCategory::MatMulPv)
        .shape(shape)
        .grouped(vec![
            TbGroup::new(TbWork::memory(50_000.0, 5_000.0), 250),
            TbGroup::new(
                TbWork {
                    cuda_flops: 1e6,
                    tensor_flops: 2e6,
                    efficiency: 0.9,
                    ..TbWork::default()
                },
                30,
            ),
            TbGroup::new(TbWork::default(), 10),
        ])
        .build();
    let per_tb = KernelDesc::builder("p", KernelCategory::Other)
        .shape(shape)
        .per_tb(
            (0..40)
                .map(|i| TbWork::memory(f64::from(i % 7 + 1) * 9_000.0, 1_000.0))
                .collect::<Vec<_>>(),
        )
        .build();
    let bytes = 4 * 1024 * 1024u64;
    let producer = KernelDesc::builder("prod", KernelCategory::InterReduction)
        .shape(shape)
        .uniform(1_000, TbWork::memory(0.0, bytes as f64 / 1_000.0))
        .writes("r'", bytes)
        .build();
    let consumer = KernelDesc::builder("cons", KernelCategory::GlobalScaling)
        .shape(shape)
        .uniform(1_000, TbWork::memory(bytes as f64 / 1_000.0, 0.0))
        .reads("r'", bytes)
        .build();
    for device in [DeviceSpec::a100(), DeviceSpec::t4()] {
        assert_cache_transparent(
            &device,
            &[
                uniform.clone(),
                grouped.clone(),
                per_tb.clone(),
                producer.clone(),
                consumer.clone(),
            ],
        );
    }
}

#[cfg(not(miri))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn work_strategy() -> impl Strategy<Value = TbWork> {
        (
            0.0f64..1e9,
            0.0f64..1e9,
            0.0f64..1e6,
            0.0f64..1e6,
            0.05f64..1.0,
            0.1f64..1.0,
        )
            .prop_map(|(cuda, tensor, rd, wr, frac, eff)| TbWork {
                cuda_flops: cuda,
                tensor_flops: tensor,
                dram_read_bytes: rd,
                dram_write_bytes: wr,
                mem_active_fraction: frac,
                efficiency: eff,
            })
    }

    /// `Some` with probability ~2/3 (the vendored proptest has no
    /// `option::of`).
    fn maybe_buffer() -> impl Strategy<Value = Option<(usize, u64)>> {
        prop_oneof![
            Just(None),
            (0usize..3, 1u64..(8 * 1024 * 1024)).prop_map(Some),
            (0usize..3, 1u64..(8 * 1024 * 1024)).prop_map(Some),
        ]
    }

    /// One kernel of any grid form, optionally touching shared buffers so
    /// consecutive kernels interact through L2 (varying `read_scale`).
    fn kernel_strategy() -> impl Strategy<Value = KernelDesc> {
        let grid = prop_oneof![
            (work_strategy(), 1u64..3_000).prop_map(|(w, count)| (vec![(w, count)], true)),
            proptest::collection::vec((work_strategy(), 1u64..400), 1..5)
                .prop_map(|groups| (groups, false)),
        ];
        (grid, 32u32..1024, maybe_buffer(), maybe_buffer()).prop_map(
            |((groups, uniform), threads, reads, writes)| {
                let names = ["qk", "p", "r'"];
                let mut b = KernelDesc::builder("k", KernelCategory::Other);
                b.shape(TbShape::new(threads, 2048, 32));
                if uniform {
                    let (w, count) = groups[0];
                    b.uniform(count, w);
                } else {
                    b.grouped(
                        groups
                            .into_iter()
                            .map(|(w, count)| TbGroup::new(w, count))
                            .collect::<Vec<_>>(),
                    );
                }
                if let Some((i, bytes)) = reads {
                    b.reads(names[i], bytes);
                }
                if let Some((i, bytes)) = writes {
                    b.writes(names[i], bytes);
                }
                b.build()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Memoized pricing is bit-identical to fresh simulation on
        /// arbitrary kernel streams, cold and warm.
        #[test]
        fn memoized_pricing_is_bit_identical(
            kernels in proptest::collection::vec(kernel_strategy(), 1..6),
        ) {
            assert_cache_transparent(&DeviceSpec::a100(), &kernels);
        }

        /// Same property on the occupancy-poorest device (different slot
        /// counts exercise different wave splits).
        #[test]
        fn memoized_pricing_is_bit_identical_on_t4(
            kernels in proptest::collection::vec(kernel_strategy(), 1..4),
        ) {
            assert_cache_transparent(&DeviceSpec::t4(), &kernels);
        }
    }
}
