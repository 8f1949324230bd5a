//! Checkpoint-path URIs.
//!
//! "The Engine analyzes the given checkpoint path to determine the
//! appropriate storage backend" (§3.1). Users address checkpoints as
//! `scheme://location/key`, e.g. `hdfs://cluster-a/ckpts/job1/step_100` or
//! `file:///tmp/debug-ckpt`; this module parses those into a scheme plus a
//! backend-relative key.

use crate::{Result, StorageError};
use serde::{Deserialize, Serialize};

/// Storage scheme of a checkpoint URI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// In-memory storage (`mem://`).
    Memory,
    /// Local disk (`file://`).
    File,
    /// HDFS cluster (`hdfs://`).
    Hdfs,
    /// NAS mount (`nas://`).
    Nas,
    /// S3-style object store (`object://`, alias `s3://`).
    Object,
}

impl Scheme {
    /// Canonical scheme string.
    pub fn as_str(self) -> &'static str {
        match self {
            Scheme::Memory => "mem",
            Scheme::File => "file",
            Scheme::Hdfs => "hdfs",
            Scheme::Nas => "nas",
            Scheme::Object => "object",
        }
    }
}

/// A parsed checkpoint URI: scheme, authority (cluster/host, may be empty)
/// and slash-separated key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StorageUri {
    /// Which backend family handles this path.
    pub scheme: Scheme,
    /// Cluster / host part (informational; selects among registered
    /// backends of a scheme).
    pub authority: String,
    /// Object-key prefix for the checkpoint.
    pub key: String,
}

impl StorageUri {
    /// Parse `scheme://authority/key`. A bare path with no scheme defaults
    /// to `file://` (the paper's "local disk for debugging" convention). A
    /// query (`?k=v`) is refused: no backend reads one, and one silently
    /// ignored would look like configuration that took effect.
    pub fn parse(s: &str) -> Result<StorageUri> {
        let (scheme, rest) = match s.split_once("://") {
            Some((sch, rest)) => {
                let scheme = match sch {
                    "mem" | "memory" => Scheme::Memory,
                    "file" | "local" => Scheme::File,
                    "hdfs" => Scheme::Hdfs,
                    "nas" => Scheme::Nas,
                    "object" | "s3" => Scheme::Object,
                    other => {
                        return Err(StorageError::Io(format!("unknown storage scheme {other:?}")))
                    }
                };
                (scheme, rest)
            }
            None => (Scheme::File, s),
        };
        if rest.contains('?') {
            return Err(StorageError::Io(format!(
                "checkpoint URI {s:?} has a query; no backend reads URI parameters"
            )));
        }
        let (authority, key) = match scheme {
            // file:///abs/path -> empty authority, key "abs/path"
            Scheme::File => ("".to_string(), rest.trim_start_matches('/').to_string()),
            _ => match rest.split_once('/') {
                Some((auth, key)) => (auth.to_string(), key.trim_matches('/').to_string()),
                None => (rest.to_string(), String::new()),
            },
        };
        if key.is_empty() {
            return Err(StorageError::Io(format!("checkpoint URI {s:?} has an empty key")));
        }
        Ok(StorageUri { scheme, authority, key })
    }

    /// Join a sub-path onto this URI's key.
    pub fn join(&self, sub: &str) -> StorageUri {
        let mut key = self.key.trim_end_matches('/').to_string();
        key.push('/');
        key.push_str(sub.trim_start_matches('/'));
        StorageUri { scheme: self.scheme, authority: self.authority.clone(), key }
    }
}

impl std::fmt::Display for StorageUri {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}://{}/{}", self.scheme.as_str(), self.authority, self.key)
    }
}

/// A validated checkpoint address: a [`StorageUri`] that is known to have
/// parsed successfully.
///
/// Save/load requests take `impl Into<CheckpointLocation>`, so malformed
/// URIs surface at request *construction* — in the trainer's code, with a
/// clear panic message — rather than mid-save deep inside the engine. Use
/// [`CheckpointLocation::parse`] (or `str::parse`) for the fallible form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CheckpointLocation {
    uri: StorageUri,
}

impl CheckpointLocation {
    /// Fallible construction from a URI string.
    pub fn parse(s: &str) -> Result<CheckpointLocation> {
        StorageUri::parse(s).map(|uri| CheckpointLocation { uri })
    }

    /// The validated URI.
    pub fn uri(&self) -> &StorageUri {
        &self.uri
    }

    /// Join a sub-path onto this location's key.
    pub fn join(&self, sub: &str) -> CheckpointLocation {
        CheckpointLocation { uri: self.uri.join(sub) }
    }
}

impl From<StorageUri> for CheckpointLocation {
    fn from(uri: StorageUri) -> CheckpointLocation {
        CheckpointLocation { uri }
    }
}

impl From<&StorageUri> for CheckpointLocation {
    fn from(uri: &StorageUri) -> CheckpointLocation {
        CheckpointLocation { uri: uri.clone() }
    }
}

impl From<&str> for CheckpointLocation {
    /// Panics on a malformed URI — the error belongs at the construction
    /// site, not mid-save. Use [`CheckpointLocation::parse`] to handle it.
    fn from(s: &str) -> CheckpointLocation {
        match CheckpointLocation::parse(s) {
            Ok(loc) => loc,
            Err(e) => panic!("invalid checkpoint location {s:?}: {e}"),
        }
    }
}

impl From<String> for CheckpointLocation {
    fn from(s: String) -> CheckpointLocation {
        CheckpointLocation::from(s.as_str())
    }
}

impl From<&String> for CheckpointLocation {
    fn from(s: &String) -> CheckpointLocation {
        CheckpointLocation::from(s.as_str())
    }
}

impl std::str::FromStr for CheckpointLocation {
    type Err = StorageError;

    fn from_str(s: &str) -> Result<CheckpointLocation> {
        CheckpointLocation::parse(s)
    }
}

impl std::fmt::Display for CheckpointLocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.uri.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_schemes() {
        let u = StorageUri::parse("hdfs://cluster-a/ckpts/job1/step_100").unwrap();
        assert_eq!(u.scheme, Scheme::Hdfs);
        assert_eq!(u.authority, "cluster-a");
        assert_eq!(u.key, "ckpts/job1/step_100");

        let u = StorageUri::parse("mem://gemini/job2").unwrap();
        assert_eq!(u.scheme, Scheme::Memory);
        assert_eq!(u.key, "job2");

        let u = StorageUri::parse("file:///tmp/debug").unwrap();
        assert_eq!(u.scheme, Scheme::File);
        assert_eq!(u.authority, "");
        assert_eq!(u.key, "tmp/debug");

        let u = StorageUri::parse("nas://mount1/ckpt").unwrap();
        assert_eq!(u.scheme, Scheme::Nas);

        let u = StorageUri::parse("object://sim/jobs/llm").unwrap();
        assert_eq!(u.scheme, Scheme::Object);
        assert_eq!(u.authority, "sim");
        assert_eq!(u.key, "jobs/llm");
        // `s3://` is an alias for the object store.
        let u = StorageUri::parse("s3://bucket/key").unwrap();
        assert_eq!(u.scheme, Scheme::Object);
        assert_eq!(u.authority, "bucket");
    }

    #[test]
    fn a_query_is_refused_by_name_not_ignored() {
        for s in ["hdfs://c/job?qps=5", "file:///tmp/x?a=b", "object://sim/k?"] {
            let err = StorageUri::parse(s).unwrap_err();
            assert!(matches!(&err, StorageError::Io(m) if m.contains(s)), "{s}: {err}");
            let err = CheckpointLocation::parse(s).unwrap_err();
            assert!(err.to_string().contains("query"), "{s}: {err}");
        }
    }

    #[test]
    fn bare_path_defaults_to_file() {
        let u = StorageUri::parse("some/relative/ckpt").unwrap();
        assert_eq!(u.scheme, Scheme::File);
        assert_eq!(u.key, "some/relative/ckpt");
    }

    #[test]
    fn errors_on_unknown_scheme_and_empty_key() {
        assert!(StorageUri::parse("ftp://bucket/key").is_err());
        assert!(StorageUri::parse("hdfs://cluster-only").is_err());
    }

    #[test]
    fn location_validates_at_construction() {
        let loc = CheckpointLocation::from("hdfs://cluster-a/job/step_5");
        assert_eq!(loc.uri().key, "job/step_5");
        assert_eq!(loc.to_string(), "hdfs://cluster-a/job/step_5");
        assert_eq!(loc.join("COMPLETE").uri().key, "job/step_5/COMPLETE");
        assert!(CheckpointLocation::parse("ftp://nope/x").is_err());
        assert!("mem://a/b".parse::<CheckpointLocation>().is_ok());
        let from_uri: CheckpointLocation = StorageUri::parse("mem://a/b").unwrap().into();
        assert_eq!(from_uri.uri().scheme, Scheme::Memory);
    }

    #[test]
    #[should_panic(expected = "invalid checkpoint location")]
    fn location_from_malformed_str_panics() {
        let _ = CheckpointLocation::from("ftp://bucket/key");
    }

    #[test]
    fn join_builds_subkeys() {
        let u = StorageUri::parse("hdfs://c/base").unwrap();
        assert_eq!(u.join("model_0.bin").key, "base/model_0.bin");
        assert_eq!(u.join("/model_0.bin").key, "base/model_0.bin");
        assert_eq!(u.to_string(), "hdfs://c/base");
    }
}
