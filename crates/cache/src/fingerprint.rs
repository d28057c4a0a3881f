//! Canonical prompt identity.
//!
//! A response cache must never conflate two requests that could answer
//! differently. For a black-box client the answer is a function of
//! `(model, rendered prompt)` — sampling noise aside, which the simulated
//! models seed from the prompt itself — so the fingerprint hashes exactly
//! those two, with a separator that makes `("ab", "c")` and `("a", "bc")`
//! distinct.

/// A 64-bit canonical identity for one `(model, prompt)` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

/// Fingerprint of one request: XXH64 ([`mqo_obs::Xxh64`], seed 0) over
/// the model profile name, a NUL separator (impossible inside either
/// string's meaningful content), and the rendered prompt. It runs on
/// every query, hence a hash that reads eight bytes per step.
pub fn fingerprint(model: &str, prompt: &str) -> Fingerprint {
    let mut h = mqo_obs::Xxh64::new();
    h.update(model.as_bytes()).update(&[0u8]).update(prompt.as_bytes());
    Fingerprint(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_xxh64_of_model_nul_prompt() {
        assert_eq!(fingerprint("m", "prompt").0, mqo_obs::xxh64(b"m\0prompt"));
    }

    #[test]
    fn deterministic_and_distinguishes_inputs() {
        assert_eq!(fingerprint("m", "p"), fingerprint("m", "p"));
        assert_ne!(fingerprint("m", "p"), fingerprint("m", "q"));
        assert_ne!(fingerprint("m", "p"), fingerprint("n", "p"));
    }

    #[test]
    fn separator_prevents_concatenation_collisions() {
        assert_ne!(fingerprint("ab", "c"), fingerprint("a", "bc"));
        assert_ne!(fingerprint("", "abc"), fingerprint("abc", ""));
    }

    #[test]
    fn spreads_over_similar_prompts() {
        // Structurally similar prompts (the MQO workload) must not collide.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u32 {
            let p = format!("Target paper: Title: paper {i}\nAbstract: text\n");
            assert!(seen.insert(fingerprint("gpt-3.5-turbo-0125", &p)), "collision at {i}");
        }
    }
}
