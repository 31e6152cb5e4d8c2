//! Minimal `--key value` argument parser.

use std::collections::HashMap;
use std::str::FromStr;

/// Parsed `--key value` pairs.
#[derive(Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    /// Flags that need a value and were given none, in argument order.
    valueless: Vec<String>,
}

impl Args {
    /// Parses `--key value` pairs. A flag named in `bare` takes no value
    /// and gets the value `"true"`: a non-flag token after it is an error
    /// naming the flag, never a value it silently swallows. Every other
    /// flag needs a value: one that comes last or is followed by another
    /// `--flag` gets none, never the value `"true"`, and
    /// [`valueless`](Self::valueless) names it.
    pub fn parse(argv: &[String], bare: &[&str]) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut valueless = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let arg = &argv[i];
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument '{arg}' (expected --key)"));
            };
            if key.is_empty() {
                return Err("empty flag '--'".into());
            }
            let value = match argv.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(v) if bare.contains(&key) => {
                    return Err(format!("--{key} takes no value (got '{v}')"));
                }
                None if bare.contains(&key) => "true".to_owned(),
                Some(v) => {
                    i += 1;
                    v.clone()
                }
                None => {
                    valueless.push(key.to_owned());
                    i += 1;
                    continue;
                }
            };
            values.insert(key.to_owned(), value);
            i += 1;
        }
        Ok(Args { values, valueless })
    }

    /// The first flag that needs a value and was given none.
    pub fn valueless(&self) -> Option<&str> {
        self.valueless.first().map(String::as_str)
    }

    /// Raw value lookup.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Required raw value.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    /// Required value parsed to `T`.
    pub fn require_parsed<T: FromStr>(&self, key: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.require(key)?
            .parse()
            .map_err(|e| format!("bad --{key}: {e}"))
    }

    /// Optional value parsed to `T` with a default.
    pub fn parse_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("bad --{key}: {e}")),
        }
    }

    /// Whether a bare flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// The first given flag, in key order, that `known` rejects.
    pub fn unknown_flag(&self, known: impl Fn(&str) -> bool) -> Option<&str> {
        let mut keys: Vec<&str> = self
            .values
            .keys()
            .chain(&self.valueless)
            .map(String::as_str)
            .collect();
        keys.sort_unstable();
        keys.into_iter().find(|key| !known(key))
    }

    /// All parsed pairs sorted by key, for deterministic config
    /// summaries (the run ledger).
    pub fn sorted_pairs(&self) -> Vec<(&str, &str)> {
        let mut pairs: Vec<_> = self
            .values
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        pairs.sort_unstable();
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn key_value_pairs() -> Result<(), String> {
        let a = Args::parse(&sv(&["--supp", "8", "--algo", "ista"]), &[])?;
        assert_eq!(a.get("supp"), Some("8"));
        assert_eq!(a.get("algo"), Some("ista"));
        assert_eq!(a.get("missing"), None);
        Ok(())
    }

    #[test]
    fn bare_flags() -> Result<(), String> {
        let a = Args::parse(&sv(&["--verbose", "--supp", "3"]), &["verbose"])?;
        assert!(a.flag("verbose"));
        assert_eq!(a.require_parsed::<u32>("supp")?, 3);
        Ok(())
    }

    #[test]
    fn trailing_flag() -> Result<(), String> {
        let a = Args::parse(&sv(&["--supp", "3", "--no-prune"]), &["no-prune"])?;
        assert!(a.flag("no-prune"));
        Ok(())
    }

    #[test]
    fn valued_flags_without_a_value_get_none() -> Result<(), String> {
        for argv in [&["--supp", "3", "--out"][..], &["--out", "--supp", "3"]] {
            let a = Args::parse(&sv(argv), &["no-prune"])?;
            assert_eq!(a.valueless(), Some("out"), "{argv:?}");
            assert_eq!(a.get("out"), None, "{argv:?}");
            assert_eq!(a.get("supp"), Some("3"), "{argv:?}");
            assert_eq!(a.unknown_flag(|k| k == "supp"), Some("out"));
        }
        assert_eq!(Args::parse(&sv(&["--supp", "3"]), &[])?.valueless(), None);
        Ok(())
    }

    #[test]
    fn bare_flags_take_no_value() -> Result<(), String> {
        let bare = ["stats", "no-push"];
        let a = Args::parse(&sv(&["--stats", "--supp", "3", "--no-push"]), &bare)?;
        assert!(a.flag("stats") && a.flag("no-push"));
        let err = Args::parse(&sv(&["--no-push", "false"]), &bare).unwrap_err();
        assert_eq!(err, "--no-push takes no value (got 'false')");
        // a valued flag still takes its value
        assert_eq!(
            Args::parse(&sv(&["--supp", "3"]), &bare)?.get("supp"),
            Some("3")
        );
        Ok(())
    }

    #[test]
    fn errors() -> Result<(), String> {
        assert!(Args::parse(&sv(&["supp", "8"]), &[]).is_err());
        assert!(Args::parse(&sv(&["--"]), &[]).is_err());
        let a = Args::parse(&sv(&["--supp", "x"]), &[])?;
        assert!(a.require_parsed::<u32>("supp").is_err());
        assert!(a.require("absent").is_err());
        Ok(())
    }

    #[test]
    fn parse_or_default() -> Result<(), String> {
        let a = Args::parse(&sv(&[]), &[])?;
        assert_eq!(a.parse_or("scale", 1.5)?, 1.5);
        let a = Args::parse(&sv(&["--scale", "0.25"]), &[])?;
        assert_eq!(a.parse_or("scale", 1.5)?, 0.25);
        Ok(())
    }
}
