//! A small, deterministic tokenizer for forum post text.

use crate::stopwords::is_stopword;

/// Hands each lowercase alphanumeric token of `text` to `f`, in text
/// order, as a `&str` borrowed from one reused buffer, so no token is
/// allocated on its own.
///
/// Rules: Unicode-aware lowercasing; any run of alphanumeric
/// characters (plus `_`, `+`, `#` inside programming-language names
/// like `c++`/`c#`) forms a token; everything else separates tokens;
/// purely numeric tokens are kept (version numbers carry topical
/// signal); single-character alphabetic tokens and runs of only
/// `+`/`#`/`_` are dropped.
///
/// # Example
///
/// ```
/// use forumcast_text::for_each_token;
/// let mut longest = 0;
/// for_each_token("Sorting C++ vectors, in-place!", |tok| longest = longest.max(tok.len()));
/// assert_eq!(longest, "sorting".len());
/// ```
pub fn for_each_token(text: &str, mut f: impl FnMut(&str)) {
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() || ch == '_' || ch == '+' || ch == '#' {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            emit(&cur, &mut f);
            cur.clear();
        }
    }
    if !cur.is_empty() {
        emit(&cur, &mut f);
    }
}

fn emit(tok: &str, f: &mut impl FnMut(&str)) {
    // Drop stray '+'/'#' only tokens and 1-char alphabetic noise.
    let mut chars = tok.chars();
    let single_letter =
        matches!((chars.next(), chars.next()), (Some(c), None) if c.is_alphabetic());
    if !single_letter && tok.chars().any(char::is_alphanumeric) {
        f(tok);
    }
}

/// [`for_each_token`] without English stop words.
pub fn for_each_filtered_token(text: &str, mut f: impl FnMut(&str)) {
    for_each_token(text, |tok| {
        if !is_stopword(tok) {
            f(tok);
        }
    });
}

/// The tokens [`for_each_token`] yields, collected.
///
/// # Example
///
/// ```
/// use forumcast_text::tokenize;
/// assert_eq!(
///     tokenize("Sorting C++ vectors, in-place!"),
///     vec!["sorting", "c++", "vectors", "in", "place"]
/// );
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_token(text, |tok| tokens.push(tok.to_owned()));
    tokens
}

/// The tokens [`for_each_filtered_token`] yields, collected.
///
/// # Example
///
/// ```
/// use forumcast_text::tokenize_filtered;
/// assert_eq!(tokenize_filtered("how do I sort the list"), vec!["sort", "list"]);
/// ```
pub fn tokenize_filtered(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_filtered_token(text, |tok| tokens.push(tok.to_owned()));
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercases_and_splits_on_punctuation() {
        assert_eq!(tokenize("Hello, World!"), vec!["hello", "world"]);
    }

    #[test]
    fn keeps_language_names_with_symbols() {
        assert_eq!(
            tokenize("C# vs C++ vs F#"),
            vec!["c#", "vs", "c++", "vs", "f#"]
        );
    }

    #[test]
    fn keeps_underscores_and_numbers() {
        assert_eq!(
            tokenize("python_3 v2.7 my_var"),
            vec!["python_3", "v2", "7", "my_var"]
        );
    }

    #[test]
    fn drops_single_letters_but_keeps_single_digits() {
        assert_eq!(tokenize("a b 1 xy"), vec!["1", "xy"]);
    }

    #[test]
    fn drops_symbol_only_runs() {
        assert_eq!(tokenize("++ ## + # _ __"), Vec::<String>::new());
    }

    #[test]
    fn empty_and_whitespace_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t\n ").is_empty());
    }

    #[test]
    fn unicode_text_tokenizes() {
        assert_eq!(tokenize("Größe café"), vec!["größe", "café"]);
    }

    #[test]
    fn multi_char_lowercase_is_one_token() {
        // 'İ' lowercases to "i\u{307}": two chars, so it is kept.
        assert_eq!(tokenize("İ x"), vec!["i\u{307}"]);
    }

    #[test]
    fn filtered_removes_stopwords() {
        let toks = tokenize_filtered("this is the best answer of all time");
        assert_eq!(toks, vec!["best", "answer", "time"]);
    }
}
