//! Response-format validation decorators.
//!
//! A production client does not accept whatever text a model returns: it
//! validates the completion against the format the prompt demanded and
//! retries otherwise. [`ValidatingLlm`] supplies the validation half —
//! composed under [`crate::RetryingLlm`], a drifting completion becomes a
//! retriable error and the retry carries the format reminder. For long
//! campaigns where aborting on one incorrigible query is unacceptable,
//! [`LenientLlm`] forms the outermost layer: it converts a final
//! malformed-response failure back into ordinary completion text so the
//! caller's own fallback (e.g. the executor's deterministic parse
//! fallback) takes over.

use crate::error::{Error, Result};
use crate::model::{Completion, LanguageModel};
use crate::parse::extract_bracketed;
use mqo_token::UsageMeter;

/// Rejects completions that do not answer in the strict bracketed
/// `Category: ['X']` format with a known category.
pub struct ValidatingLlm<L> {
    inner: L,
    categories: Vec<String>,
}

impl<L: LanguageModel> ValidatingLlm<L> {
    /// Validate `inner`'s completions against `categories`.
    pub fn new(inner: L, categories: Vec<String>) -> Self {
        ValidatingLlm { inner, categories }
    }

    /// Access the wrapped client.
    pub fn inner(&self) -> &L {
        &self.inner
    }
}

impl<L: LanguageModel> LanguageModel for ValidatingLlm<L> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, prompt: &str) -> Result<Completion> {
        let completion = self.inner.complete(prompt)?;
        let ok = extract_bracketed(&completion.text).is_some_and(|inner| {
            let needle = inner.trim();
            self.categories.iter().any(|c| c.eq_ignore_ascii_case(needle))
        });
        if ok {
            Ok(completion)
        } else {
            Err(Error::MalformedResponse { response: completion.text })
        }
    }

    fn meter(&self) -> &UsageMeter {
        self.inner.meter()
    }
}

/// Recovers from a final malformed-response failure by handing the raw
/// text back as an ordinary completion.
///
/// The returned completion's `usage` is zeroed — the real usage was
/// already metered by the innermost client when the request ran, so
/// aggregate accounting stays exact; only the per-call usage of this rare
/// path is lost.
pub struct LenientLlm<L> {
    inner: L,
}

impl<L: LanguageModel> LenientLlm<L> {
    /// Wrap `inner`, swallowing malformed-response errors.
    pub fn new(inner: L) -> Self {
        LenientLlm { inner }
    }

    /// Access the wrapped client.
    pub fn inner(&self) -> &L {
        &self.inner
    }
}

impl<L: LanguageModel> LanguageModel for LenientLlm<L> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, prompt: &str) -> Result<Completion> {
        match self.inner.complete(prompt) {
            Err(Error::MalformedResponse { response }) => {
                Ok(Completion::billed(response, Default::default()))
            }
            other => other,
        }
    }

    fn meter(&self) -> &UsageMeter {
        self.inner.meter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ScriptedLlm;
    use crate::retry::{RetryingLlm, RETRY_SUFFIX};

    fn cats() -> Vec<String> {
        vec!["Database".into(), "Agents".into()]
    }

    #[test]
    fn strict_format_passes_validation() {
        let llm = ValidatingLlm::new(ScriptedLlm::new(["Category: ['Agents']."]), cats());
        assert_eq!(llm.complete("p").unwrap().text, "Category: ['Agents'].");
    }

    #[test]
    fn drifting_format_is_rejected_even_if_parseable() {
        // The lenient parser would accept this; the strict validator does
        // not, which is what makes the retry path fire.
        let llm =
            ValidatingLlm::new(ScriptedLlm::new(["It is clearly a Database paper."]), cats());
        match llm.complete("p") {
            Err(Error::MalformedResponse { response }) => {
                assert!(response.contains("Database"));
            }
            other => panic!("expected MalformedResponse, got {other:?}"),
        }
    }

    #[test]
    fn unknown_category_is_rejected() {
        let llm = ValidatingLlm::new(ScriptedLlm::new(["Category: ['Chemistry']"]), cats());
        assert!(llm.complete("p").is_err());
    }

    #[test]
    fn full_stack_retries_then_recovers() {
        // Attempt 1 drifts, attempt 2 (with the reminder) answers cleanly.
        let scripted =
            ScriptedLlm::new(["The most likely category is Agents.", "Category: ['Agents']"]);
        let stack = LenientLlm::new(RetryingLlm::new(ValidatingLlm::new(scripted, cats()), 3));
        assert_eq!(stack.complete("p").unwrap().text, "Category: ['Agents']");
        let prompts = stack.inner().inner().inner().prompts_seen();
        assert_eq!(prompts.len(), 2);
        assert!(prompts[1].ends_with(RETRY_SUFFIX));
    }

    #[test]
    fn exhausted_retries_fall_back_to_raw_text() {
        let scripted = ScriptedLlm::new(vec!["no usable answer at all"; 2]);
        let stack = LenientLlm::new(RetryingLlm::new(ValidatingLlm::new(scripted, cats()), 2));
        let c = stack.complete("p").unwrap();
        assert_eq!(c.text, "no usable answer at all");
        assert_eq!(c.usage, Default::default());
    }

    #[test]
    fn non_format_errors_still_propagate() {
        // An exhausted script is not a malformed response; leniency must
        // not mask it.
        let stack = LenientLlm::new(ScriptedLlm::new(Vec::<String>::new()));
        assert!(matches!(stack.complete("p"), Err(Error::ScriptExhausted)));
    }
}
