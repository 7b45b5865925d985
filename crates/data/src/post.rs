//! Posts — the atomic unit of forum content — and user identifiers.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::Hours;

/// Identifier of a forum user.
///
/// User ids are dense indices `0 .. Dataset::num_users()`, which lets
/// downstream crates index per-user arrays directly.
///
/// # Example
///
/// ```
/// use forumcast_data::UserId;
/// let u = UserId(7);
/// assert_eq!(u.index(), 7);
/// assert_eq!(format!("{u}"), "u7");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct UserId(pub u32);

impl UserId {
    /// Returns the id as a `usize` index suitable for array indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl From<u32> for UserId {
    fn from(v: u32) -> Self {
        UserId(v)
    }
}

/// The textual body of a post, split into natural-language words and
/// source code.
///
/// The paper (Section II-B) divides each post `p` into words `x(p)` and
/// code `c(p)`, "using the fact that code on forums is delimited by
/// specific HTML tags". [`PostBody::from_html`] performs that split on
/// `<code>…</code>`-delimited markup; the word and code *lengths in
/// characters* are question features (vii) and (viii).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct PostBody {
    /// Natural-language text `x(p)` of the post.
    pub text: String,
    /// Source code `c(p)` contained in the post.
    pub code: String,
}

impl PostBody {
    /// Creates a body with the given text and code parts.
    ///
    /// # Example
    ///
    /// ```
    /// use forumcast_data::PostBody;
    /// let body = PostBody::new("call sort", "v.sort();");
    /// assert_eq!(body.word_len(), 9);
    /// assert_eq!(body.code_len(), 9);
    /// ```
    pub fn new(text: impl Into<String>, code: impl Into<String>) -> Self {
        PostBody {
            text: text.into(),
            code: code.into(),
        }
    }

    /// Creates a body containing only natural-language words.
    pub fn words(text: impl Into<String>) -> Self {
        PostBody::new(text, "")
    }

    /// Parses an HTML-ish post body, extracting `<code>…</code>` spans
    /// into [`PostBody::code`] and everything else into
    /// [`PostBody::text`].
    ///
    /// The parser is deliberately lenient: an unclosed `<code>` tag
    /// treats the remainder of the input as code, and stray `</code>`
    /// tags are ignored. Other tags are left in place (they count
    /// toward the word length, as they would in a raw API dump).
    ///
    /// # Example
    ///
    /// ```
    /// use forumcast_data::PostBody;
    /// let body = PostBody::from_html("sort it: <code>v.sort()</code> done");
    /// assert_eq!(body.text, "sort it:  done");
    /// assert_eq!(body.code, "v.sort()");
    /// ```
    pub fn from_html(html: &str) -> Self {
        const OPEN: &str = "<code>";
        const CLOSE: &str = "</code>";
        let mut text = String::new();
        let mut code = String::new();
        let mut rest = html;
        loop {
            match rest.find(OPEN) {
                None => {
                    text.push_str(rest);
                    break;
                }
                Some(start) => {
                    text.push_str(&rest[..start]);
                    let after_open = &rest[start + OPEN.len()..];
                    match after_open.find(CLOSE) {
                        None => {
                            code.push_str(after_open);
                            break;
                        }
                        Some(end) => {
                            code.push_str(&after_open[..end]);
                            if !code.is_empty() {
                                code.push(' ');
                            }
                            rest = &after_open[end + CLOSE.len()..];
                        }
                    }
                }
            }
        }
        // Trim the trailing separator introduced between code spans.
        while code.ends_with(' ') {
            code.pop();
        }
        text.shrink_to_fit();
        code.shrink_to_fit();
        PostBody { text, code }
    }

    /// Length of the word text in characters — question feature (vii),
    /// `x_q = |x(p_{q0})|`.
    pub fn word_len(&self) -> usize {
        self.text.chars().count()
    }

    /// Length of the code in characters — question feature (viii),
    /// `c_q = |c(p_{q0})|`.
    pub fn code_len(&self) -> usize {
        self.code.chars().count()
    }

    /// Returns `true` when both the text and code parts are empty.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty() && self.code.is_empty()
    }
}

/// A single forum post: the question `p_{q,0}` or an answer `p_{q,n}`.
///
/// # Example
///
/// ```
/// use forumcast_data::{Post, PostBody, UserId};
/// let p = Post::new(UserId(3), 12.25, -1, PostBody::words("why"));
/// assert_eq!(p.author, UserId(3));
/// assert_eq!(p.votes, -1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Post {
    /// Creator `u(p)` of the post.
    pub author: UserId,
    /// Timestamp `t(p)` in [`Hours`] since the dataset epoch.
    pub timestamp: Hours,
    /// Net votes `v(p)` received (up-votes minus down-votes).
    pub votes: i32,
    /// Post body, split into words and code.
    pub body: PostBody,
}

impl Post {
    /// Creates a new post.
    pub fn new(author: UserId, timestamp: Hours, votes: i32, body: PostBody) -> Self {
        Post {
            author,
            timestamp,
            votes,
            body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_id_display_and_index() {
        assert_eq!(UserId(42).to_string(), "u42");
        assert_eq!(UserId(42).index(), 42);
        assert_eq!(UserId::from(9u32), UserId(9));
    }

    #[test]
    fn user_id_ordering_matches_numeric() {
        assert!(UserId(1) < UserId(2));
        assert_eq!(UserId::default(), UserId(0));
    }

    #[test]
    fn body_lengths_count_chars_not_bytes() {
        let body = PostBody::new("héllo", "λ=1");
        assert_eq!(body.word_len(), 5);
        assert_eq!(body.code_len(), 3);
    }

    #[test]
    fn from_html_extracts_single_code_span() {
        let body = PostBody::from_html("before <code>let x = 1;</code> after");
        assert_eq!(body.text, "before  after");
        assert_eq!(body.code, "let x = 1;");
    }

    #[test]
    fn from_html_extracts_multiple_code_spans() {
        let body = PostBody::from_html("a<code>x</code>b<code>y</code>c");
        assert_eq!(body.text, "abc");
        assert_eq!(body.code, "x y");
    }

    #[test]
    fn from_html_handles_unclosed_code() {
        let body = PostBody::from_html("text <code>dangling");
        assert_eq!(body.text, "text ");
        assert_eq!(body.code, "dangling");
    }

    #[test]
    fn from_html_no_code() {
        let body = PostBody::from_html("plain words only");
        assert_eq!(body.text, "plain words only");
        assert!(body.code.is_empty());
    }

    #[test]
    fn from_html_empty_input_is_empty_body() {
        let body = PostBody::from_html("");
        assert!(body.is_empty());
    }

    #[test]
    fn from_html_empty_code_span() {
        let body = PostBody::from_html("a<code></code>b");
        assert_eq!(body.text, "ab");
        assert_eq!(body.code, "");
    }

    #[test]
    fn post_roundtrips_through_serde() {
        let p = Post::new(UserId(1), 3.5, 7, PostBody::new("t", "c"));
        let json = serde_json::to_string(&p).unwrap();
        let back: Post = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
