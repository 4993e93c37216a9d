//! Parsed, normalised source URLs.

use std::fmt;

/// Errors from [`SourceUrl::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UrlError {
    /// The input has no `scheme://` separator.
    MissingScheme(String),
    /// The scheme contains characters outside `[a-zA-Z0-9+.-]`.
    InvalidScheme(String),
    /// The host component is empty.
    EmptyHost(String),
}

impl fmt::Display for UrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UrlError::MissingScheme(u) => write!(f, "missing scheme in URL: {u:?}"),
            UrlError::InvalidScheme(u) => write!(f, "invalid scheme in URL: {u:?}"),
            UrlError::EmptyHost(u) => write!(f, "empty host in URL: {u:?}"),
        }
    }
}

impl std::error::Error for UrlError {}

/// A parsed, normalised web-source URL.
///
/// Normalisation: the scheme and host are lowercased; query strings and
/// fragments are dropped (the paper identifies sources purely by URL-path
/// hierarchy); trailing slashes are trimmed; empty path segments collapse.
///
/// The *granularity* of a URL is its [`depth`](SourceUrl::depth): 0 for a
/// bare domain, +1 per path segment. [`parent`](SourceUrl::parent) removes
/// one granularity level.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceUrl {
    canonical: String,
    // Byte offset of the end of "scheme://host" in `canonical`.
    host_end: usize,
    // Byte offsets of '/' separators that start each path segment.
    segment_starts: Vec<usize>,
}

impl SourceUrl {
    /// Parses and normalises a URL string.
    pub fn parse(input: &str) -> Result<Self, UrlError> {
        let input = input.trim();
        let (scheme, rest) = input
            .split_once("://")
            .ok_or_else(|| UrlError::MissingScheme(input.to_owned()))?;
        if scheme.is_empty()
            || !scheme
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '+' | '.' | '-'))
        {
            return Err(UrlError::InvalidScheme(input.to_owned()));
        }
        // Strip query and fragment.
        let rest = rest.split(['?', '#']).next().unwrap_or("");
        let (host, path) = match rest.split_once('/') {
            Some((h, p)) => (h, p),
            None => (rest, ""),
        };
        if host.is_empty() {
            return Err(UrlError::EmptyHost(input.to_owned()));
        }
        let mut canonical = String::with_capacity(input.len());
        canonical.push_str(&scheme.to_ascii_lowercase());
        canonical.push_str("://");
        canonical.push_str(&host.to_ascii_lowercase());
        let host_end = canonical.len();
        let mut segment_starts = Vec::new();
        for seg in path.split('/') {
            if seg.is_empty() {
                continue;
            }
            segment_starts.push(canonical.len());
            canonical.push('/');
            canonical.push_str(seg);
        }
        Ok(SourceUrl {
            canonical,
            host_end,
            segment_starts,
        })
    }

    /// The canonical string form.
    pub fn as_str(&self) -> &str {
        &self.canonical
    }

    /// Scheme + host with no path: the web-domain granularity.
    pub fn domain(&self) -> SourceUrl {
        SourceUrl {
            canonical: self.canonical[..self.host_end].to_owned(),
            host_end: self.host_end,
            segment_starts: Vec::new(),
        }
    }

    /// The canonical string of [`SourceUrl::domain`], borrowed.
    pub fn domain_str(&self) -> &str {
        &self.canonical[..self.host_end]
    }

    /// The host name (lowercased).
    pub fn host(&self) -> &str {
        let after_scheme = self.canonical.find("://").expect("canonical has scheme") + 3;
        &self.canonical[after_scheme..self.host_end]
    }

    /// Number of path segments; 0 means this is a bare domain.
    pub fn depth(&self) -> usize {
        self.segment_starts.len()
    }

    /// Whether this URL is a bare domain.
    pub fn is_domain(&self) -> bool {
        self.segment_starts.is_empty()
    }

    /// Path segments in order.
    pub fn segments(&self) -> impl Iterator<Item = &str> {
        let canonical = &self.canonical;
        let n = self.segment_starts.len();
        self.segment_starts
            .iter()
            .enumerate()
            .map(move |(i, &start)| {
                let end = if i + 1 < n {
                    self.segment_starts[i + 1]
                } else {
                    canonical.len()
                };
                &canonical[start + 1..end]
            })
    }

    /// The URL one granularity level up, or `None` for a bare domain.
    pub fn parent(&self) -> Option<SourceUrl> {
        let (&last, rest) = self.segment_starts.split_last()?;
        Some(SourceUrl {
            canonical: self.canonical[..last].to_owned(),
            host_end: self.host_end,
            segment_starts: rest.to_vec(),
        })
    }

    /// All strict ancestors from the immediate parent up to the domain.
    pub fn ancestors(&self) -> Vec<SourceUrl> {
        let mut out = Vec::with_capacity(self.depth());
        let mut cur = self.parent();
        while let Some(u) = cur {
            cur = u.parent();
            out.push(u);
        }
        out
    }

    /// Appends one path segment, producing a finer-grained URL.
    pub fn child(&self, segment: &str) -> SourceUrl {
        let seg = segment.trim_matches('/');
        let mut canonical = self.canonical.clone();
        let mut segment_starts = self.segment_starts.clone();
        segment_starts.push(canonical.len());
        canonical.push('/');
        canonical.push_str(seg);
        SourceUrl {
            canonical,
            host_end: self.host_end,
            segment_starts,
        }
    }

    /// Whether `self` is `other` or an ancestor of `other` in the URL
    /// hierarchy (prefix on whole segments, same domain).
    pub fn contains(&self, other: &SourceUrl) -> bool {
        if self.host_end != other.host_end
            || self.canonical[..self.host_end] != other.canonical[..other.host_end]
        {
            return false;
        }
        if self.depth() > other.depth() {
            return false;
        }
        other.canonical.starts_with(&self.canonical)
            && (other.canonical.len() == self.canonical.len()
                || other.canonical.as_bytes()[self.canonical.len()] == b'/')
    }
}

impl fmt::Display for SourceUrl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical)
    }
}

impl std::str::FromStr for SourceUrl {
    type Err = UrlError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SourceUrl::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_normalises_case_and_trailing_slash() {
        let u = SourceUrl::parse("HTTP://Space.Skyrocket.DE/doc_sat/").unwrap();
        assert_eq!(u.as_str(), "http://space.skyrocket.de/doc_sat");
        assert_eq!(u.depth(), 1);
    }

    #[test]
    fn parse_drops_query_and_fragment() {
        let u = SourceUrl::parse("https://a.com/x/y?q=1#frag").unwrap();
        assert_eq!(u.as_str(), "https://a.com/x/y");
    }

    #[test]
    fn parse_collapses_empty_segments() {
        let u = SourceUrl::parse("https://a.com//x///y").unwrap();
        assert_eq!(u.as_str(), "https://a.com/x/y");
        assert_eq!(u.depth(), 2);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(matches!(
            SourceUrl::parse("no-scheme.com/x"),
            Err(UrlError::MissingScheme(_))
        ));
        assert!(matches!(
            SourceUrl::parse("ht tp://a.com"),
            Err(UrlError::InvalidScheme(_))
        ));
        assert!(matches!(
            SourceUrl::parse("http:///x"),
            Err(UrlError::EmptyHost(_))
        ));
    }

    #[test]
    fn parent_walks_one_level() {
        let page = SourceUrl::parse("http://space.skyrocket.de/doc_lau_fam/atlas.htm").unwrap();
        let sub = page.parent().unwrap();
        assert_eq!(sub.as_str(), "http://space.skyrocket.de/doc_lau_fam");
        let dom = sub.parent().unwrap();
        assert_eq!(dom.as_str(), "http://space.skyrocket.de");
        assert!(dom.parent().is_none());
        assert!(dom.is_domain());
    }

    #[test]
    fn ancestors_lists_all_coarser_granularities() {
        let page = SourceUrl::parse("https://www.cdc.gov/niosh/ipcsneng/neng0363.html").unwrap();
        let anc = page.ancestors();
        let strs: Vec<&str> = anc.iter().map(|u| u.as_str()).collect();
        assert_eq!(
            strs,
            vec![
                "https://www.cdc.gov/niosh/ipcsneng",
                "https://www.cdc.gov/niosh",
                "https://www.cdc.gov",
            ]
        );
    }

    #[test]
    fn segments_iterate_in_order() {
        let u = SourceUrl::parse("https://a.com/x/y/z.html").unwrap();
        let segs: Vec<&str> = u.segments().collect();
        assert_eq!(segs, vec!["x", "y", "z.html"]);
    }

    #[test]
    fn child_round_trips_with_parent() {
        let dom = SourceUrl::parse("https://golfadvisor.com").unwrap();
        let child = dom.child("course-directory");
        assert_eq!(child.as_str(), "https://golfadvisor.com/course-directory");
        assert_eq!(child.parent().unwrap(), dom);
    }

    #[test]
    fn host_and_domain_accessors() {
        let u = SourceUrl::parse("https://www.golfadvisor.com/course-directory/2-usa").unwrap();
        assert_eq!(u.host(), "www.golfadvisor.com");
        assert_eq!(u.domain().as_str(), "https://www.golfadvisor.com");
        assert_eq!(u.domain().depth(), 0);
    }

    #[test]
    fn contains_is_segment_aware() {
        let a = SourceUrl::parse("https://a.com/doc").unwrap();
        let b = SourceUrl::parse("https://a.com/doc/page.htm").unwrap();
        let c = SourceUrl::parse("https://a.com/doc_sat").unwrap();
        assert!(a.contains(&b));
        assert!(a.contains(&a));
        assert!(
            !a.contains(&c),
            "doc is not a prefix of doc_sat on segments"
        );
        assert!(!b.contains(&a));
        let other = SourceUrl::parse("https://b.com/doc").unwrap();
        assert!(!a.contains(&other));
    }

    #[test]
    fn display_and_fromstr() {
        let u: SourceUrl = "https://a.com/x".parse().unwrap();
        assert_eq!(u.to_string(), "https://a.com/x");
    }
}
