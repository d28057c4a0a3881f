//! Deterministic BPE-flavoured tokenizer.
//!
//! Rules (chosen to mimic the qualitative behaviour of GPT tokenizers):
//!
//! * runs of alphanumeric characters are words; a word costs
//!   `ceil(len / SUBWORD)` tokens where `SUBWORD = 4` approximates the
//!   well-known "≈4 characters per token" heuristic;
//! * every punctuation / symbol character is its own token;
//! * whitespace is free (merged into the following token, as BPE does).
//!
//! Counting never allocates; [`Tokenizer::words`] (the simulated LLM's
//! prompt reader) yields borrowed word slices, and [`Tokenizer::tokenize`]
//! (tests and debugging) materializes the subword pieces.
//!
//! [`Tokenizer::count`] runs on every rendered prompt, so it reads ASCII a
//! byte at a time through a 256-entry class table (word, whitespace,
//! symbol) and hands the rest of the text to the `char` loop at the first
//! non-ASCII byte. The table is built from `char::is_whitespace`, so
//! U+000B (vertical tab) is whitespace here exactly as in the `char` loop;
//! `u8::is_ascii_whitespace` would call it a symbol.

/// Characters per subword chunk.
const SUBWORD: usize = 4;

/// Byte classes for [`Tokenizer::count`]'s ASCII fast path.
const WORD: u8 = 0;
const SPACE: u8 = 1;
const SYMBOL: u8 = 2;
const NON_ASCII: u8 = 3;

/// Class of every byte: for ASCII, what the `char` loop decides
/// (`is_alphanumeric` and `is_ascii_alphanumeric` agree on ASCII);
/// every byte of a multi-byte scalar is [`NON_ASCII`].
const BYTE_CLASS: [u8; 256] = {
    let mut table = [NON_ASCII; 256];
    let mut b = 0;
    while b < 128 {
        let ch = b as u8 as char;
        table[b] = if ch.is_ascii_alphanumeric() {
            WORD
        } else if ch.is_whitespace() {
            SPACE
        } else {
            SYMBOL
        };
        b += 1;
    }
    table
};

/// The workspace tokenizer. Stateless; construct freely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tokenizer;

impl Tokenizer {
    /// Create a tokenizer.
    pub fn new() -> Self {
        Tokenizer
    }

    /// Number of tokens in `text`. O(len), zero allocation.
    pub fn count(&self, text: &str) -> usize {
        let mut tokens = 0usize;
        let mut word_len = 0usize;
        for (i, &b) in text.as_bytes().iter().enumerate() {
            match BYTE_CLASS[b as usize] {
                WORD => word_len += 1,
                SPACE => {
                    tokens += word_len.div_ceil(SUBWORD);
                    word_len = 0;
                }
                SYMBOL => {
                    tokens += word_len.div_ceil(SUBWORD) + 1;
                    word_len = 0;
                }
                // Every byte before `i` is ASCII, so `i` is a char boundary.
                _ => return count_chars(&text[i..], tokens, word_len),
            }
        }
        tokens + word_len.div_ceil(SUBWORD)
    }

    /// Iterate the alphanumeric words of `text` as borrowed slices
    /// (punctuation skipped). This is the view the simulated LLM reads.
    pub fn words<'a>(&self, text: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        text.split(|c: char| !c.is_alphanumeric()).filter(|w| !w.is_empty())
    }

    /// Tokenize into subword pieces (owned); for debugging and tests.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut word = String::new();
        let flush = |word: &mut String, out: &mut Vec<String>| {
            if !word.is_empty() {
                let chars: Vec<char> = word.chars().collect();
                for chunk in chars.chunks(SUBWORD) {
                    out.push(chunk.iter().collect());
                }
                word.clear();
            }
        };
        for ch in text.chars() {
            if ch.is_alphanumeric() {
                word.push(ch);
            } else {
                flush(&mut word, &mut out);
                if !ch.is_whitespace() {
                    out.push(ch.to_string());
                }
            }
        }
        flush(&mut word, &mut out);
        out
    }
}

/// The `char` loop behind [`Tokenizer::count`], resumed with `tokens`
/// counted so far and an open word of `word_len` characters.
fn count_chars(text: &str, mut tokens: usize, mut word_len: usize) -> usize {
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            word_len += 1;
        } else {
            tokens += word_len.div_ceil(SUBWORD);
            word_len = 0;
            if !ch.is_whitespace() {
                tokens += 1;
            }
        }
    }
    tokens + word_len.div_ceil(SUBWORD)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// [`Tokenizer::count`] as it was before the ASCII fast path: the
    /// oracle the byte-table path must agree with on every input.
    fn count_reference(text: &str) -> usize {
        let mut tokens = 0usize;
        let mut word_len = 0usize;
        for ch in text.chars() {
            if ch.is_alphanumeric() {
                word_len += 1;
            } else {
                if word_len > 0 {
                    tokens += word_len.div_ceil(SUBWORD);
                    word_len = 0;
                }
                if !ch.is_whitespace() {
                    tokens += 1;
                }
            }
        }
        if word_len > 0 {
            tokens += word_len.div_ceil(SUBWORD);
        }
        tokens
    }

    /// Characters where byte and `char` classification could part ways:
    /// ASCII controls and U+000B/U+000C (whitespace to `char`, not all of
    /// them to `u8::is_ascii_whitespace`), Unicode whitespace (U+0085,
    /// U+00A0, U+2028, U+3000), non-Latin letters and digits, combining
    /// marks, symbols and emoji.
    const ALPHABET: &[char] = &[
        'a', 'Z', 'q', '0', '7', ' ', '\t', '\n', '\r', '\u{0}', '\u{1f}', '\u{7f}', '\u{b}',
        '\u{c}', '\u{1c}', '\u{85}', '\u{a0}', '\u{2028}', '\u{2029}', '\u{3000}', '\u{1680}',
        '.', ',', '[', '\'', '"', '-', 'é', 'ß', 'λ', '中', '٣', '४', '௫', '\u{ff11}',
        '\u{301}', '\u{64b}', '\u{200d}', '…', '—', '🙂',
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn count_matches_the_char_loop(
            picks in prop::collection::vec(0..ALPHABET.len(), 0..160)
        ) {
            let text: String = picks.iter().map(|&i| ALPHABET[i]).collect();
            prop_assert_eq!(Tokenizer.count(&text), count_reference(&text), "{:?}", text);
        }
    }

    #[test]
    fn byte_table_agrees_with_char_predicates() {
        for b in 0u8..128 {
            let ch = b as char;
            let expected = if ch.is_alphanumeric() {
                WORD
            } else if ch.is_whitespace() {
                SPACE
            } else {
                SYMBOL
            };
            assert_eq!(BYTE_CLASS[b as usize], expected, "byte {b:#04x}");
        }
        assert!(BYTE_CLASS[128..].iter().all(|&c| c == NON_ASCII));
        // The one ASCII byte the two whitespace predicates disagree on.
        assert_eq!(Tokenizer.count("a\u{b}b"), 2);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(Tokenizer.count(""), 0);
        assert_eq!(Tokenizer.count("   \n\t"), 0);
    }

    #[test]
    fn short_words_are_one_token() {
        assert_eq!(Tokenizer.count("the"), 1);
        assert_eq!(Tokenizer.count("a b c"), 3);
    }

    #[test]
    fn long_words_split_into_subwords() {
        assert_eq!(Tokenizer.count("data"), 1); // 4 chars
        assert_eq!(Tokenizer.count("datab"), 2); // 5 chars
        assert_eq!(Tokenizer.count("databases"), 3); // 9 chars
    }

    #[test]
    fn punctuation_costs_one_each() {
        assert_eq!(Tokenizer.count("['XX']"), 5); // [ ' ] plus the word XX
        assert_eq!(Tokenizer.count("a, b."), 4);
    }

    #[test]
    fn count_matches_tokenize_len() {
        for text in [
            "Target paper: Title: foo\nAbstract: bar baz",
            "Category: ['Database']",
            "word punctuation-heavy, (parenthetical) text!",
            "",
        ] {
            assert_eq!(Tokenizer.count(text), Tokenizer.tokenize(text).len(), "{text:?}");
        }
    }

    #[test]
    fn words_iterator_strips_punctuation() {
        let words: Vec<&str> = Tokenizer.words("Title: hello, world-wide!").collect();
        assert_eq!(words, vec!["Title", "hello", "world", "wide"]);
    }

    #[test]
    fn unicode_does_not_panic() {
        assert!(Tokenizer.count("naïve café résumé — “quotes”") > 0);
    }

    #[test]
    fn count_is_additive_over_concatenation_with_space() {
        let a = "some words here";
        let b = "and more there";
        let joined = format!("{a} {b}");
        assert_eq!(Tokenizer.count(&joined), Tokenizer.count(a) + Tokenizer.count(b));
    }
}
