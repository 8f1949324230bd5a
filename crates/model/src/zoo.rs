//! The paper's evaluation models (Table 3, Table 8, Tables 5–7) plus tiny
//! variants for tests. Hidden/heads/layers for vDiT-4B and tGPT-70B are the
//! paper's exact numbers; 13B/30B use the standard GPT-3 family configs the
//! paper's "we modify the tGPT 70B model" implies; vocab sizes are chosen so
//! total parameter counts land on the advertised scale.

use crate::arch::{ArchKind, TransformerConfig};
use bcp_tensor::DType;

/// vDiT 4B: "Hidden 1664, #Heads 16, #Layers 48" — video-generation DiT
/// fine-tuned with FSDP (ZeRO-2) on A100s.
pub fn vdit_4b() -> TransformerConfig {
    TransformerConfig {
        name: "vDiT-4B".into(),
        kind: ArchKind::DiT,
        hidden: 1664,
        heads: 16,
        layers: 48,
        vocab: 4096, // patch-projection input dim
        ffn_mult: 4,
        dtype: DType::BF16,
        num_experts: 0,
    }
}

/// tGPT 70B: "Hidden 8192, #Heads 64, #Layers 80" — text generation with
/// Megatron-LM on H800s.
pub fn tgpt_70b() -> TransformerConfig {
    TransformerConfig {
        name: "tGPT-70B".into(),
        kind: ArchKind::Gpt,
        hidden: 8192,
        heads: 64,
        layers: 80,
        vocab: 128_256,
        ffn_mult: 4,
        dtype: DType::BF16,
        num_experts: 0,
    }
}

/// tGPT 13B (GPT-3 13B geometry): used in the saving/loading ablations
/// (Tables 5–7).
pub fn tgpt_13b() -> TransformerConfig {
    TransformerConfig {
        name: "tGPT-13B".into(),
        kind: ArchKind::Gpt,
        hidden: 5120,
        heads: 40,
        layers: 40,
        vocab: 50_304,
        ffn_mult: 4,
        dtype: DType::BF16,
        num_experts: 0,
    }
}

/// tGPT 30B: intermediate ablation model (Tables 5–7).
pub fn tgpt_30b() -> TransformerConfig {
    TransformerConfig {
        name: "tGPT-30B".into(),
        kind: ArchKind::Gpt,
        hidden: 6656,
        heads: 52,
        layers: 56,
        vocab: 50_304,
        ffn_mult: 4,
        dtype: DType::BF16,
        num_experts: 0,
    }
}

/// Vision Transformer 7B: the Table 8 FSDP scalability workload
/// (1488 GPUs, ZeRO-2).
pub fn vit_7b() -> TransformerConfig {
    TransformerConfig {
        name: "ViT-7B".into(),
        kind: ArchKind::ViT,
        hidden: 4096,
        heads: 32,
        layers: 34,
        vocab: 3072, // 32x32x3 patches
        ffn_mult: 4,
        dtype: DType::BF16,
        num_experts: 0,
    }
}

/// Text Transformer 405B: the Table 8 Megatron scalability workload
/// (8960 GPUs, TP=8 DP=70 PP=16).
pub fn text_405b() -> TransformerConfig {
    TransformerConfig {
        name: "Text-405B".into(),
        kind: ArchKind::Gpt,
        hidden: 16384,
        heads: 128,
        layers: 126,
        vocab: 128_256,
        ffn_mult: 4,
        dtype: DType::BF16,
        num_experts: 0,
    }
}

/// Tiny GPT for real-execution tests: 4 layers, hidden 16 — small enough
/// to materialize, shard, and verify bitwise in milliseconds.
pub fn tiny_gpt() -> TransformerConfig {
    TransformerConfig {
        name: "tiny-GPT".into(),
        kind: ArchKind::Gpt,
        hidden: 16,
        heads: 4,
        layers: 4,
        vocab: 64,
        ffn_mult: 4,
        dtype: DType::F32,
        num_experts: 0,
    }
}

/// Tiny GPT with 8 layers (pipeline-parallel resharding tests need layer
/// counts divisible by larger PP degrees).
pub fn tiny_gpt_8l() -> TransformerConfig {
    TransformerConfig { name: "tiny-GPT-8L".into(), layers: 8, ..tiny_gpt() }
}

/// Tiny DiT for FSDP-path tests.
pub fn tiny_dit() -> TransformerConfig {
    TransformerConfig {
        name: "tiny-DiT".into(),
        kind: ArchKind::DiT,
        hidden: 16,
        heads: 4,
        layers: 3,
        vocab: 48,
        ffn_mult: 4,
        dtype: DType::F32,
        num_experts: 0,
    }
}

/// Tiny model with bf16 weights, to exercise half-precision storage paths
/// end to end.
pub fn tiny_gpt_bf16() -> TransformerConfig {
    TransformerConfig { name: "tiny-GPT-bf16".into(), dtype: DType::BF16, ..tiny_gpt() }
}

/// Tiny mixture-of-experts model: 8 experts per layer, fp32 router —
/// exercises expert-parallel resharding (Appendix A's MoE scripts).
pub fn tiny_moe() -> TransformerConfig {
    TransformerConfig { name: "tiny-MoE".into(), num_experts: 8, ..tiny_gpt() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(tiny_gpt().num_params() < vdit_4b().num_params());
        assert!(vdit_4b().num_params() < vit_7b().num_params());
        assert!(vit_7b().num_params() < tgpt_13b().num_params());
        assert!(tgpt_13b().num_params() < tgpt_30b().num_params());
        assert!(tgpt_30b().num_params() < tgpt_70b().num_params());
        assert!(tgpt_70b().num_params() < text_405b().num_params());
    }

    #[test]
    fn headline_models_near_advertised_size() {
        let close = |n: u64, b: f64| (n as f64) > b * 0.8 && (n as f64) < b * 1.25;
        assert!(close(vit_7b().num_params(), 7e9), "{}", vit_7b().num_params());
        assert!(close(tgpt_13b().num_params(), 13e9), "{}", tgpt_13b().num_params());
        assert!(close(tgpt_30b().num_params(), 30e9), "{}", tgpt_30b().num_params());
        assert!(close(text_405b().num_params(), 405e9), "{}", text_405b().num_params());
    }
}
