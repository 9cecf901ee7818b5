//! The linguistic layer: operation declarations with `move`/`visit`
//! parameter modes (§2.3, Fig. 1).
//!
//! The paper's host language (GOM) lets an operation declare what should
//! happen to its object parameters:
//!
//! ```text
//! declare assign: visit job, move schedule -> bool;
//! ```
//!
//! A **move** parameter migrates to the callee for the duration of the call
//! (call-by-move); a **visit** parameter additionally migrates back when the
//! call completes (call-by-visit). These primitives "carry semantics": they
//! tie a migration to a well-defined validity span, which is exactly the
//! hook the transient-placement reinterpretation (§3.2) attaches to.
//!
//! This module parses and represents such declarations; `oml-runtime`
//! executes them (`Cluster::invoke_with_decl`).

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// How an object parameter is passed (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ParamMode {
    /// Ordinary remote reference — no migration.
    #[default]
    Ref,
    /// Call-by-move: the argument migrates to the callee and stays.
    Move,
    /// Call-by-visit: the argument migrates to the callee and back.
    Visit,
}

impl fmt::Display for ParamMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ParamMode::Ref => "ref",
            ParamMode::Move => "move",
            ParamMode::Visit => "visit",
        };
        f.write_str(s)
    }
}

/// One declared parameter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Passing mode.
    pub mode: ParamMode,
}

/// A parsed operation declaration.
///
/// # Example
///
/// ```
/// use oml_core::lang::{OperationDecl, ParamMode};
///
/// // the exact example of the paper's Fig. 1
/// let decl: OperationDecl = "declare assign: visit job, move schedule -> bool"
///     .parse()
///     .unwrap();
/// assert_eq!(decl.name, "assign");
/// assert_eq!(decl.params.len(), 2);
/// assert_eq!(decl.params[0].mode, ParamMode::Visit);
/// assert_eq!(decl.params[1].mode, ParamMode::Move);
/// assert_eq!(decl.result.as_deref(), Some("bool"));
/// assert_eq!(decl.to_string(), "declare assign: visit job, move schedule -> bool");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OperationDecl {
    /// Operation name.
    pub name: String,
    /// Declared parameters, in order.
    pub params: Vec<Param>,
    /// Result type name, if declared.
    pub result: Option<String>,
}

impl OperationDecl {
    /// Builds a declaration programmatically.
    #[must_use]
    pub fn new(name: &str, params: Vec<Param>, result: Option<&str>) -> Self {
        OperationDecl {
            name: name.to_owned(),
            params,
            result: result.map(str::to_owned),
        }
    }

    /// The passing modes, in parameter order.
    pub fn modes(&self) -> impl Iterator<Item = ParamMode> + '_ {
        self.params.iter().map(|p| p.mode)
    }
}

impl fmt::Display for OperationDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "declare {}:", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            match p.mode {
                ParamMode::Ref => write!(f, " {}", p.name)?,
                mode => write!(f, " {mode} {}", p.name)?,
            }
        }
        if let Some(r) = &self.result {
            write!(f, " -> {r}")?;
        }
        Ok(())
    }
}

/// A declaration that failed to parse, with a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDeclError {
    reason: String,
}

impl ParseDeclError {
    fn new(reason: impl Into<String>) -> Self {
        ParseDeclError {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ParseDeclError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid operation declaration: {}", self.reason)
    }
}

impl Error for ParseDeclError {}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !s.starts_with(|c: char| c.is_ascii_digit())
}

impl FromStr for OperationDecl {
    type Err = ParseDeclError;

    /// Parses `["declare"] name ":" [param ("," param)*] ["->" result] [";"]`
    /// where `param := ["move" | "visit"] ident`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim().trim_end_matches(';').trim();
        let s = s.strip_prefix("declare ").unwrap_or(s);

        let (name, rest) = s
            .split_once(':')
            .ok_or_else(|| ParseDeclError::new("missing `:` after the operation name"))?;
        let name = name.trim();
        if !is_ident(name) {
            return Err(ParseDeclError::new(format!(
                "`{name}` is not a valid operation name"
            )));
        }

        let (params_part, result) = match rest.split_once("->") {
            Some((p, r)) => {
                let r = r.trim();
                if !is_ident(r) {
                    return Err(ParseDeclError::new(format!(
                        "`{r}` is not a valid result type"
                    )));
                }
                (p, Some(r.to_owned()))
            }
            None => (rest, None),
        };

        let mut params = Vec::new();
        let params_part = params_part.trim();
        if !params_part.is_empty() {
            for raw in params_part.split(',') {
                let raw = raw.trim();
                let (mode, pname) = if let Some(p) = raw.strip_prefix("move ") {
                    (ParamMode::Move, p.trim())
                } else if let Some(p) = raw.strip_prefix("visit ") {
                    (ParamMode::Visit, p.trim())
                } else {
                    (ParamMode::Ref, raw)
                };
                if !is_ident(pname) {
                    return Err(ParseDeclError::new(format!(
                        "`{pname}` is not a valid parameter name"
                    )));
                }
                params.push(Param {
                    name: pname.to_owned(),
                    mode,
                });
            }
        }
        Ok(OperationDecl {
            name: name.to_owned(),
            params,
            result,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_fig1_example() {
        let d: OperationDecl = "declare assign: visit job, move schedule -> bool;"
            .parse()
            .unwrap();
        assert_eq!(d.name, "assign");
        assert_eq!(
            d.params,
            vec![
                Param {
                    name: "job".into(),
                    mode: ParamMode::Visit
                },
                Param {
                    name: "schedule".into(),
                    mode: ParamMode::Move
                },
            ]
        );
        assert_eq!(d.result.as_deref(), Some("bool"));
    }

    #[test]
    fn declare_keyword_and_semicolon_are_optional() {
        let a: OperationDecl = "f: move x".parse().unwrap();
        let b: OperationDecl = "declare f: move x;".parse().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn plain_parameters_default_to_ref() {
        let d: OperationDecl = "lookup: key -> value".parse().unwrap();
        assert_eq!(d.params[0].mode, ParamMode::Ref);
    }

    #[test]
    fn empty_parameter_list_is_allowed() {
        let d: OperationDecl = "ping: -> bool".parse().unwrap();
        assert!(d.params.is_empty());
        assert_eq!(d.result.as_deref(), Some("bool"));
        let d: OperationDecl = "tick:".parse().unwrap();
        assert!(d.params.is_empty());
        assert_eq!(d.result, None);
    }

    #[test]
    fn display_round_trips() {
        for src in [
            "declare assign: visit job, move schedule -> bool",
            "declare f: move x",
            "declare lookup: key -> value",
        ] {
            let d: OperationDecl = src.parse().unwrap();
            let re: OperationDecl = d.to_string().parse().unwrap();
            assert_eq!(d, re);
        }
    }

    #[test]
    fn rejects_malformed_declarations() {
        for bad in [
            "no colon here",
            "f: 9bad",
            "f: move 9x",
            ": move x",
            "f: x -> 7bad",
            "f: mo ve x",
        ] {
            assert!(bad.parse::<OperationDecl>().is_err(), "{bad}");
        }
    }

    #[test]
    fn keywords_can_double_as_parameter_names() {
        // `move` standing alone is an ordinary (ref) parameter called
        // "move"; only `move <ident>` selects the mode.
        let d: OperationDecl = "f: move".parse().unwrap();
        assert_eq!(d.params[0].name, "move");
        assert_eq!(d.params[0].mode, ParamMode::Ref);
    }

    #[test]
    fn modes_iterator_matches_params() {
        let d: OperationDecl = "g: visit a, b, move c".parse().unwrap();
        let modes: Vec<ParamMode> = d.modes().collect();
        assert_eq!(
            modes,
            vec![ParamMode::Visit, ParamMode::Ref, ParamMode::Move]
        );
    }
}
