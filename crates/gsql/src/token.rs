//! Lexer for the GSQL vector-search subset.

use tv_common::{TvError, TvResult};

/// One lexical token with its byte offset (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    /// Token kind/payload.
    pub kind: TokenKind,
    /// Byte offset in the source.
    pub offset: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TokenKind {
    // Keywords (case-insensitive in source).
    Select,
    From,
    Where,
    Order,
    By,
    Limit,
    And,
    Or,
    Not,
    VectorDist,
    // Punctuation.
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Dot,
    Colon,
    Semicolon,
    ArrowRight, // ->
    ArrowLeft,  // <-
    Dash,       // -
    Lt,
    Gt,
    Le,
    Ge,
    Eq,  // =
    Neq, // != or <>
    // Literals and names.
    Ident(String),
    Param(String),
    Int(i64),
    Float(f64),
    Str(String),
}

/// Tokenize a query string.
pub(crate) fn tokenize(src: &str) -> TvResult<Vec<Token>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                out.push(Token {
                    kind: TokenKind::LParen,
                    offset: start,
                });
                i += 1;
            }
            ')' => {
                out.push(Token {
                    kind: TokenKind::RParen,
                    offset: start,
                });
                i += 1;
            }
            '[' => {
                out.push(Token {
                    kind: TokenKind::LBracket,
                    offset: start,
                });
                i += 1;
            }
            ']' => {
                out.push(Token {
                    kind: TokenKind::RBracket,
                    offset: start,
                });
                i += 1;
            }
            ',' => {
                out.push(Token {
                    kind: TokenKind::Comma,
                    offset: start,
                });
                i += 1;
            }
            '.' => {
                out.push(Token {
                    kind: TokenKind::Dot,
                    offset: start,
                });
                i += 1;
            }
            ':' => {
                out.push(Token {
                    kind: TokenKind::Colon,
                    offset: start,
                });
                i += 1;
            }
            ';' => {
                out.push(Token {
                    kind: TokenKind::Semicolon,
                    offset: start,
                });
                i += 1;
            }
            '-' if bytes.get(i + 1) == Some(&b'>') => {
                out.push(Token {
                    kind: TokenKind::ArrowRight,
                    offset: start,
                });
                i += 2;
            }
            '-' => {
                out.push(Token {
                    kind: TokenKind::Dash,
                    offset: start,
                });
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'-') {
                    out.push(Token {
                        kind: TokenKind::ArrowLeft,
                        offset: start,
                    });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token {
                        kind: TokenKind::Le,
                        offset: start,
                    });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    out.push(Token {
                        kind: TokenKind::Neq,
                        offset: start,
                    });
                    i += 2;
                } else {
                    out.push(Token {
                        kind: TokenKind::Lt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token {
                        kind: TokenKind::Ge,
                        offset: start,
                    });
                    i += 2;
                } else {
                    out.push(Token {
                        kind: TokenKind::Gt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '=' => {
                out.push(Token {
                    kind: TokenKind::Eq,
                    offset: start,
                });
                i += 1;
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(Token {
                    kind: TokenKind::Neq,
                    offset: start,
                });
                i += 2;
            }
            '"' | '\'' => {
                let quote = bytes[i];
                i += 1;
                let s0 = i;
                while i < bytes.len() && bytes[i] != quote {
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(TvError::Parse {
                        message: "unterminated string".into(),
                        offset: start,
                    });
                }
                let text = std::str::from_utf8(&bytes[s0..i])
                    .map_err(|_| TvError::Parse {
                        message: "invalid utf-8 in string".into(),
                        offset: start,
                    })?
                    .to_string();
                out.push(Token {
                    kind: TokenKind::Str(text),
                    offset: start,
                });
                i += 1;
            }
            '$' => {
                i += 1;
                let s0 = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                if i == s0 {
                    return Err(TvError::Parse {
                        message: "empty parameter name".into(),
                        offset: start,
                    });
                }
                out.push(Token {
                    kind: TokenKind::Param(src[s0..i].to_string()),
                    offset: start,
                });
            }
            c if c.is_ascii_digit() => {
                let s0 = i;
                let mut is_float = false;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || bytes[i] == b'.'
                        || bytes[i] == b'e'
                        || bytes[i] == b'E'
                        || ((bytes[i] == b'+' || bytes[i] == b'-')
                            && matches!(bytes[i - 1], b'e' | b'E')))
                {
                    if bytes[i] == b'.' || bytes[i] == b'e' || bytes[i] == b'E' {
                        is_float = true;
                    }
                    i += 1;
                }
                let text = &src[s0..i];
                let kind = if is_float {
                    TokenKind::Float(text.parse().map_err(|_| TvError::Parse {
                        message: format!("bad number '{text}'"),
                        offset: start,
                    })?)
                } else {
                    TokenKind::Int(text.parse().map_err(|_| TvError::Parse {
                        message: format!("bad number '{text}'"),
                        offset: start,
                    })?)
                };
                out.push(Token {
                    kind,
                    offset: start,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let s0 = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &src[s0..i];
                let kind = match word.to_ascii_uppercase().as_str() {
                    "SELECT" => TokenKind::Select,
                    "FROM" => TokenKind::From,
                    "WHERE" => TokenKind::Where,
                    "ORDER" => TokenKind::Order,
                    "BY" => TokenKind::By,
                    "LIMIT" => TokenKind::Limit,
                    "AND" => TokenKind::And,
                    "OR" => TokenKind::Or,
                    "NOT" => TokenKind::Not,
                    "VECTOR_DIST" => TokenKind::VectorDist,
                    _ => TokenKind::Ident(word.to_string()),
                };
                out.push(Token { kind, offset: s0 });
            }
            other => {
                return Err(TvError::Parse {
                    message: format!("unexpected character '{other}'"),
                    offset: start,
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(
            kinds("select FROM Order by LIMIT"),
            vec![
                TokenKind::Select,
                TokenKind::From,
                TokenKind::Order,
                TokenKind::By,
                TokenKind::Limit
            ]
        );
    }

    #[test]
    fn pattern_arrows() {
        assert_eq!(
            kinds("-[:knows]-> <-[:hasCreator]-"),
            vec![
                TokenKind::Dash,
                TokenKind::LBracket,
                TokenKind::Colon,
                TokenKind::Ident("knows".into()),
                TokenKind::RBracket,
                TokenKind::ArrowRight,
                TokenKind::ArrowLeft,
                TokenKind::LBracket,
                TokenKind::Colon,
                TokenKind::Ident("hasCreator".into()),
                TokenKind::RBracket,
                TokenKind::Dash,
            ]
        );
    }

    #[test]
    fn literals() {
        assert_eq!(
            kinds("42 3.5 1e3 \"hi\" 'there' $qv"),
            vec![
                TokenKind::Int(42),
                TokenKind::Float(3.5),
                TokenKind::Float(1000.0),
                TokenKind::Str("hi".into()),
                TokenKind::Str("there".into()),
                TokenKind::Param("qv".into()),
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            kinds("< <= > >= = != <>"),
            vec![
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::Eq,
                TokenKind::Neq,
                TokenKind::Neq,
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("SELECT -- a comment\n s"),
            vec![TokenKind::Select, TokenKind::Ident("s".into())]
        );
    }

    #[test]
    fn errors_carry_offsets() {
        let err = tokenize("SELECT \"unterminated").unwrap_err();
        match err {
            TvError::Parse { offset, .. } => assert_eq!(offset, 7),
            other => panic!("unexpected {other:?}"),
        }
        assert!(tokenize("a # b").is_err());
        assert!(tokenize("$ ").is_err());
    }

    #[test]
    fn vector_dist_keyword() {
        assert_eq!(
            kinds("VECTOR_DIST vector_dist"),
            vec![TokenKind::VectorDist; 2]
        );
    }
}
