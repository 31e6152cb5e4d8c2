//! Minimal `--key value` argument parser.

use std::collections::HashMap;
use std::str::FromStr;

/// Parsed `--key value` pairs.
#[derive(Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
}

impl Args {
    /// Parses `--key value` pairs; bare `--flag` (followed by another flag
    /// or end of input) gets the value `"true"`. A flag named in `bare`
    /// takes no value: a non-flag token after it is an error naming the
    /// flag, never a value it silently swallows.
    pub fn parse(argv: &[String], bare: &[&str]) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut i = 0;
        while i < argv.len() {
            let arg = &argv[i];
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument '{arg}' (expected --key)"));
            };
            if key.is_empty() {
                return Err("empty flag '--'".into());
            }
            let value = match argv.get(i + 1) {
                Some(v) if bare.contains(&key) && !v.starts_with("--") => {
                    return Err(format!("--{key} takes no value (got '{v}')"));
                }
                Some(v) if !v.starts_with("--") => {
                    i += 1;
                    v.clone()
                }
                _ => "true".to_owned(),
            };
            values.insert(key.to_owned(), value);
            i += 1;
        }
        Ok(Args { values })
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
        self.sorted_pairs()
            .into_iter()
            .map(|(key, _)| key)
            .find(|key| !known(key))
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
        let a = Args::parse(&sv(&["--verbose", "--supp", "3"]), &[])?;
        assert!(a.flag("verbose"));
        assert_eq!(a.require_parsed::<u32>("supp")?, 3);
        Ok(())
    }

    #[test]
    fn trailing_flag() -> Result<(), String> {
        let a = Args::parse(&sv(&["--supp", "3", "--no-prune"]), &[])?;
        assert!(a.flag("no-prune"));
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
