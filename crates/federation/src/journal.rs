//! A durable, append-only run journal.
//!
//! Serialises what a run *decided* — its access sequence, its relevance
//! verdict log, and the version-stamped entries of the cross-session
//! [`SharedVerdictCache`] — to a line-oriented text file, and replays it
//! elsewhere:
//!
//! * **Reproducibility.** [`RunJournal::read_runs`] rebuilds the journaled
//!   access sequences and [`VerdictRecord`] logs exactly, so journal-vs-live
//!   equality can be asserted across processes (à la a causal chain: the
//!   journal is the evidence of what the run did).
//! * **Warm starts.** [`RunJournal::replay`] feeds the journaled cache
//!   entries into a fresh [`SharedVerdictCache`] via its `insert` hook. A
//!   new process (or a fresh serving registry in the same process) then
//!   answers every journaled relevance check as a shared-cache hit — zero
//!   decision procedures re-run for journaled verdicts.
//!
//! The format is deliberately plain: one record per line, space-separated
//! tokens, values percent-escaped. Appending runs is concatenation; partial
//! trailing lines (a crashed writer) are detected and skipped.
//!
//! Verdict-cache keys embed `RelationId` / `AccessMethodId` indices and
//! relation *fact counts*, and read sets embed `ValueId`s, so a journal is
//! only meaningful to a process loading the same schema, methods, and
//! initial configuration, built in the same order — exactly the serving
//! layer's `verdict_class` contract, whose class discriminant (also
//! journaled) fences off mismatched trajectories and value-id assignments.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;

use accrel_access::{Access, AccessMethodId, Binding};
use accrel_engine::relevance::{RelevanceKind, SharedVerdictCache, VerdictRecord};
use accrel_engine::RunReport;
use accrel_schema::{DomainId, Read, ReadSet, RelationId, Value, ValueId};

/// One run as read back from a journal: the executed access sequence and
/// the relevance verdict log, byte-for-byte what the live run reported.
#[derive(Debug, Clone, PartialEq)]
pub struct JournaledRun {
    /// The accesses executed, in execution order.
    pub access_sequence: Vec<Access>,
    /// The relevance decision log, in order.
    pub relevance_verdicts: Vec<VerdictRecord>,
}

/// Summary of a [`RunJournal::replay`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Shared-cache entries inserted into the target cache.
    pub verdicts_restored: usize,
    /// Runs found in the journal.
    pub runs: usize,
    /// Lines skipped because they were malformed.
    pub skipped_lines: usize,
    /// The journal ended mid-record (no trailing newline — a crashed
    /// appender). The partial final line was skipped, whether or not its
    /// prefix happened to parse; everything before it replayed normally.
    pub torn_tail: bool,
}

/// Reader/writer for the append-only run journal (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunJournal;

const MAGIC: &str = "accrel-journal v1";

/// Escapes the four characters a token cannot hold raw: `%`, the token
/// separator and the line breaks. [`unescape`] accepts these escapes and
/// no other.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\n' => out.push_str("%0a"),
            '\r' => out.push_str("%0d"),
            _ => out.push(c),
        }
    }
    out
}

/// Reverses [`escape`]. Any other `%` sequence, such as `%41` or `%+5`,
/// is not something the writer produces, so the token is malformed.
fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find('%') {
        out.push_str(&rest[..i]);
        out.push(match rest.get(i + 1..i + 3)? {
            "25" => '%',
            "20" => ' ',
            "0a" => '\n',
            "0d" => '\r',
            _ => return None,
        });
        rest = &rest[i + 3..];
    }
    out.push_str(rest);
    Some(out)
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Sym(s) => {
            out.push_str(" s:");
            out.push_str(&escape(s));
        }
        Value::Int(i) => {
            let _ = write!(out, " i:{i}");
        }
        Value::Fresh(n) => {
            let _ = write!(out, " f:{n}");
        }
    }
}

fn parse_value(token: &str) -> Option<Value> {
    let (tag, rest) = token.split_at_checked(2)?;
    match tag {
        "s:" => Some(Value::sym(unescape(rest)?)),
        "i:" => Some(Value::int(rest.parse().ok()?)),
        "f:" => Some(Value::fresh(rest.parse().ok()?)),
        _ => None,
    }
}

fn write_access(out: &mut String, access: &Access) {
    let _ = write!(out, " m{}", access.method().index());
    for value in access.binding().values() {
        write_value(out, value);
    }
}

/// Parses ` m<idx> <value>*` starting at `tokens` (already split).
fn parse_access(tokens: &[&str]) -> Option<Access> {
    let method = tokens.first()?.strip_prefix('m')?.parse::<u32>().ok()?;
    let values: Option<Vec<Value>> = tokens[1..].iter().map(|t| parse_value(t)).collect();
    Some(Access::new(AccessMethodId(method), Binding::new(values?)))
}

/// A value as a bare token (no leading space).
fn value_token(value: &Value) -> String {
    let mut v = String::new();
    write_value(&mut v, value);
    v.split_off(1)
}

/// Serialises a shared entry's recorded read set as ` R<n> <token>*` (or
/// ` R-` when the publishing run attached none), one token per [`Read`] of
/// the set's sorted list: `a` for [`Read::All`], `l<rel>` for
/// [`Read::Relation`], `p<rel>,<vid>` for [`Read::Pair`], `u<rel>,<value>`
/// for [`Read::UnknownValue`], `z` for [`Read::Adom`], `d<dom>` for
/// [`Read::AdomDomain`], `q<vid>,<dom>` for [`Read::AdomPair`],
/// `w<dom>,<value>` for [`Read::AdomUnknown`] and `x<dom>,<value>` for
/// [`Read::AdomPrefix`]. The tokens are sorted as strings for
/// deterministic output. Legacy lines written before prefixes existed
/// carry no `x` tokens and parse unchanged — sound, because those
/// publishers recorded coarsely: any adom walk they performed shows up as
/// the domain-unscoped `z`, which subsumes every prefix.
fn write_reads(out: &mut String, reads: Option<&ReadSet>) {
    let Some(rs) = reads else {
        out.push_str(" R-");
        return;
    };
    let mut tokens: Vec<String> = rs
        .iter()
        .map(|read| match read {
            Read::All => "a".into(),
            Read::Relation(rel) => format!("l{}", rel.index()),
            Read::Pair(rel, vid) => format!("p{},{}", rel.index(), vid.0),
            Read::UnknownValue(rel, v) => format!("u{},{}", rel.index(), value_token(v)),
            Read::Adom => "z".into(),
            Read::AdomDomain(dom) => format!("d{}", dom.0),
            Read::AdomPair(vid, dom) => format!("q{},{}", vid.0, dom.0),
            Read::AdomUnknown(v, dom) => format!("w{},{}", dom.0, value_token(v)),
            Read::AdomPrefix(dom, bound) => format!("x{},{}", dom.0, value_token(bound)),
        })
        .collect();
    tokens.sort_unstable();
    let _ = write!(out, " R{}", tokens.len());
    for t in &tokens {
        out.push(' ');
        out.push_str(t);
    }
}

/// Parses the ` R…` section written by [`write_reads`], returning the read
/// set and how many tokens it consumed. Lines from journals written before
/// read sets existed carry no `R` token; callers treat that as `None`.
fn parse_reads(tokens: &[&str]) -> Option<(Option<ReadSet>, usize)> {
    let (first, rest) = tokens.split_first()?;
    if *first == "R-" {
        return Some((None, 1));
    }
    let n: usize = first.strip_prefix('R')?.parse().ok()?;
    let (body, _) = rest.split_at_checked(n)?;
    let rel = |s: &str| Some(RelationId(s.parse().ok()?));
    let vid = |s: &str| Some(ValueId(s.parse().ok()?));
    let dom = |s: &str| Some(DomainId(s.parse().ok()?));
    let reads = body.iter().map(|t| {
        let (tag, rest) = t.split_at_checked(1)?;
        Some(match (tag, rest.split_once(',')) {
            ("a", _) if rest.is_empty() => Read::All,
            ("l", _) => Read::Relation(rel(rest)?),
            ("p", Some((r, v))) => Read::Pair(rel(r)?, vid(v)?),
            ("u", Some((r, v))) => Read::UnknownValue(rel(r)?, parse_value(v)?),
            ("z", _) if rest.is_empty() => Read::Adom,
            ("d", _) => Read::AdomDomain(dom(rest)?),
            ("q", Some((v, d))) => Read::AdomPair(vid(v)?, dom(d)?),
            ("w", Some((d, v))) => Read::AdomUnknown(parse_value(v)?, dom(d)?),
            ("x", Some((d, v))) => Read::AdomPrefix(dom(d)?, parse_value(v)?),
            _ => return None,
        })
    });
    Some((Some(reads.collect::<Option<ReadSet>>()?), 1 + n))
}

fn kind_tag(kind: RelevanceKind) -> &'static str {
    match kind {
        RelevanceKind::Immediate => "I",
        RelevanceKind::LongTerm => "L",
    }
}

fn parse_kind(tag: &str) -> Option<RelevanceKind> {
    match tag {
        "I" => Some(RelevanceKind::Immediate),
        "L" => Some(RelevanceKind::LongTerm),
        _ => None,
    }
}

impl RunJournal {
    /// Serialises one run (its access sequence and verdict log) as journal
    /// lines. The result is appendable: concatenating serialised runs and
    /// cache snapshots yields a valid journal.
    pub fn serialize_run(report: &RunReport) -> String {
        let mut out = String::new();
        out.push_str("run\n");
        for access in &report.access_sequence {
            out.push_str("access");
            write_access(&mut out, access);
            out.push('\n');
        }
        for record in &report.relevance_verdicts {
            let _ = write!(
                out,
                "verdict {} {}",
                kind_tag(record.kind),
                if record.verdict { 't' } else { 'f' }
            );
            write_access(&mut out, &record.access);
            out.push('\n');
        }
        out
    }

    /// Serialises every entry of `cache` as journal lines.
    pub fn serialize_cache(cache: &SharedVerdictCache) -> String {
        let mut entries = cache.entries();
        // Deterministic output: sort by the full key's debug-stable fields
        // (the key is unique per (class, kind, access, deps), so the read
        // set never needs to participate).
        entries.sort_by(|a, b| (a.0, a.1, &a.2, &a.3, a.4).cmp(&(b.0, b.1, &b.2, &b.3, b.4)));
        let mut out = String::new();
        for (class, kind, access, deps, verdict, reads) in entries {
            let _ = write!(
                out,
                "shared {class:x} {} {} {}",
                kind_tag(kind),
                if verdict { 't' } else { 'f' },
                deps.len()
            );
            for (relation, count) in &deps {
                let _ = write!(out, " r{}:{}", relation.index(), count);
            }
            write_reads(&mut out, reads.as_ref());
            write_access(&mut out, &access);
            out.push('\n');
        }
        out
    }

    /// Creates (truncating) a journal at `path` holding `runs` and the
    /// current contents of `cache`.
    pub fn write_to(
        path: impl AsRef<Path>,
        runs: &[&RunReport],
        cache: &SharedVerdictCache,
    ) -> io::Result<()> {
        let mut file = File::create(path)?;
        writeln!(file, "{MAGIC}")?;
        for run in runs {
            file.write_all(Self::serialize_run(run).as_bytes())?;
        }
        file.write_all(Self::serialize_cache(cache).as_bytes())?;
        file.flush()
    }

    /// Appends one run to an existing journal (creating it, with its header,
    /// if absent). A torn tail left by a crashed appender is cut back to the
    /// last newline first — replay never trusts it, and the new run must
    /// not be glued onto it — and a file with no complete line left gets
    /// its header again.
    pub fn append_run(path: impl AsRef<Path>, report: &RunReport) -> io::Result<()> {
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        let mut content = Vec::new();
        file.read_to_end(&mut content)?;
        let keep = content
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        file.set_len(keep as u64)?;
        file.seek(SeekFrom::Start(keep as u64))?;
        if keep == 0 {
            writeln!(file, "{MAGIC}")?;
        }
        file.write_all(Self::serialize_run(report).as_bytes())?;
        file.flush()
    }

    /// Reads back every journaled run. Malformed lines and a torn final
    /// line are skipped, not fatal (an interrupted append leaves at most
    /// one partial record, always last).
    pub fn read_runs(path: impl AsRef<Path>) -> io::Result<Vec<JournaledRun>> {
        let mut runs = Vec::new();
        Self::scan(path, |line| match line {
            Record::RunStart => runs.push(JournaledRun {
                access_sequence: Vec::new(),
                relevance_verdicts: Vec::new(),
            }),
            Record::Access(access) => {
                if let Some(run) = runs.last_mut() {
                    run.access_sequence.push(access);
                }
            }
            Record::Verdict(record) => {
                if let Some(run) = runs.last_mut() {
                    run.relevance_verdicts.push(record);
                }
            }
            Record::Shared { .. } => {}
        })
        .map(|_| runs)
    }

    /// Replays the journal at `path` into `cache`: every journaled shared
    /// verdict is inserted under its original version-stamped key, so a
    /// subsequent run following the same trajectory answers those checks as
    /// shared hits — zero re-run decision procedures for journaled
    /// verdicts.
    pub fn replay(path: impl AsRef<Path>, cache: &SharedVerdictCache) -> io::Result<ReplaySummary> {
        let mut summary = ReplaySummary::default();
        let stats = Self::scan(path, |record| match record {
            Record::RunStart => summary.runs += 1,
            Record::Shared {
                class,
                kind,
                access,
                deps,
                verdict,
                reads,
            } => {
                cache.insert(class, kind, access, deps, verdict, reads);
                summary.verdicts_restored += 1;
            }
            Record::Access(_) | Record::Verdict(_) => {}
        })?;
        summary.skipped_lines = stats.skipped;
        summary.torn_tail = stats.torn_tail;
        Ok(summary)
    }

    /// Parses the journal line by line, invoking `sink` per valid record;
    /// returns how many interior lines were skipped as malformed and
    /// whether the final line was torn. A torn tail — the file does not end
    /// in a newline, so the last append never completed — is *always*
    /// skipped, even when its prefix happens to parse: a crash mid-append
    /// can leave a record whose truncation is still token-valid but lies
    /// about what the run did. Lines are decoded one at a time, so a tail
    /// cut inside a multi-byte character is just torn, and an interior line
    /// that is not UTF-8 is one malformed line.
    fn scan(path: impl AsRef<Path>, mut sink: impl FnMut(Record)) -> io::Result<ScanStats> {
        let content = std::fs::read(path)?;
        let mut stats = ScanStats::default();
        let mut lines: Vec<&[u8]> = content.split(|&b| b == b'\n').collect();
        // A complete journal ends in '\n', so the split yields a trailing
        // empty segment; anything else is the partial final record.
        match lines.pop() {
            Some([]) | None => {}
            Some(_) => stats.torn_tail = true,
        }
        let mut lines = lines.into_iter();
        if lines.next() != Some(MAGIC.as_bytes()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not an accrel journal (bad or missing header)",
            ));
        }
        for line in lines {
            if line.is_empty() {
                continue;
            }
            match std::str::from_utf8(line).ok().and_then(Record::parse) {
                Some(record) => sink(record),
                None => stats.skipped += 1,
            }
        }
        Ok(stats)
    }
}

/// What [`RunJournal::scan`] observed beyond the records themselves.
#[derive(Debug, Clone, Copy, Default)]
struct ScanStats {
    skipped: usize,
    torn_tail: bool,
}

enum Record {
    RunStart,
    Access(Access),
    Verdict(VerdictRecord),
    Shared {
        class: u64,
        kind: RelevanceKind,
        access: Access,
        deps: Vec<(RelationId, usize)>,
        verdict: bool,
        reads: Option<ReadSet>,
    },
}

impl Record {
    fn parse(line: &str) -> Option<Record> {
        let tokens: Vec<&str> = line.split(' ').collect();
        match *tokens.first()? {
            "run" if tokens.len() == 1 => Some(Record::RunStart),
            "access" => Some(Record::Access(parse_access(&tokens[1..])?)),
            "verdict" => {
                let kind = parse_kind(tokens.get(1)?)?;
                let verdict = parse_bool(tokens.get(2)?)?;
                let access = parse_access(&tokens[3..])?;
                Some(Record::Verdict(VerdictRecord {
                    access,
                    kind,
                    verdict,
                }))
            }
            "shared" => {
                let class = u64::from_str_radix(tokens.get(1)?, 16).ok()?;
                let kind = parse_kind(tokens.get(2)?)?;
                let verdict = parse_bool(tokens.get(3)?)?;
                let ndeps: usize = tokens.get(4)?.parse().ok()?;
                let (dep_tokens, rest) = tokens.get(5..)?.split_at_checked(ndeps)?;
                let deps: Option<Vec<(RelationId, usize)>> = dep_tokens
                    .iter()
                    .map(|t| {
                        let (rel, count) = t.strip_prefix('r')?.split_once(':')?;
                        Some((RelationId(rel.parse().ok()?), count.parse().ok()?))
                    })
                    .collect();
                // Journals written before read sets existed jump straight to
                // the access (`m…`); treat those entries as read-set-free.
                let (reads, consumed) = if rest.first().is_some_and(|t| t.starts_with('R')) {
                    parse_reads(rest)?
                } else {
                    (None, 0)
                };
                let access = parse_access(rest.get(consumed..)?)?;
                Some(Record::Shared {
                    class,
                    kind,
                    access,
                    deps: deps?,
                    verdict,
                    reads,
                })
            }
            _ => None,
        }
    }
}

fn parse_bool(token: &str) -> Option<bool> {
    match token {
        "t" => Some(true),
        "f" => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accrel_access::binding;

    #[test]
    fn values_round_trip_through_escaping() {
        for value in [
            Value::sym("plain"),
            Value::sym("with space"),
            Value::sym("per%cent"),
            Value::sym("new\nline"),
            Value::int(-42),
            Value::fresh(7),
        ] {
            let mut out = String::new();
            write_value(&mut out, &value);
            let token = out.trim_start();
            assert_eq!(parse_value(token), Some(value.clone()), "token `{token}`");
        }
    }

    /// The reader accepts exactly the escapes the writer writes: a sign, a
    /// character `escape` leaves raw, an upper-case or cut escape makes
    /// the token, and with it the line, malformed.
    #[test]
    fn only_the_writers_escapes_decode() {
        assert_eq!(unescape("a%25b%20c%0ad%0d"), Some("a%b c\nd\r".into()));
        for token in ["a%+5", "%41", "%ff", "%0A", "%2", "%", "%%25", "%-1", "%é1"] {
            assert_eq!(unescape(token), None, "token `{token}`");
            assert_eq!(parse_value(&format!("s:{token}")), None, "token `{token}`");
        }
        let dir = std::env::temp_dir().join(format!("accrel-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("foreign_escapes.journal");
        std::fs::write(
            &path,
            format!("{MAGIC}\nrun\naccess m0 s:a%+5\naccess m0 s:%41\naccess m0 s:a%20b\n"),
        )
        .unwrap();
        let runs = RunJournal::read_runs(&path).unwrap();
        let access = Access::new(AccessMethodId(0), binding(["a b"]));
        assert_eq!(runs[0].access_sequence, [access]);
        let summary = RunJournal::replay(&path, &SharedVerdictCache::new()).unwrap();
        assert_eq!(summary.skipped_lines, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn accesses_round_trip() {
        let access = Access::new(AccessMethodId(3), binding(["k v", "w"]));
        let mut out = String::new();
        write_access(&mut out, &access);
        let tokens: Vec<&str> = out.trim_start().split(' ').collect();
        assert_eq!(parse_access(&tokens), Some(access));
    }

    #[test]
    fn cache_entries_round_trip_through_a_file() {
        let cache = SharedVerdictCache::new();
        let access = Access::new(AccessMethodId(1), binding(["x"]));
        // One entry with an exact read set exercising every token kind
        // (including values with characters the escaper must handle), one
        // without.
        let reads: ReadSet = [
            Read::Relation(RelationId(1)),
            Read::Pair(RelationId(0), ValueId(7)),
            Read::UnknownValue(RelationId(2), Value::sym("odd value,with comma")),
            Read::Adom,
            Read::AdomDomain(DomainId(0)),
            Read::AdomPrefix(DomainId(4), Value::sym("bound value")),
            Read::AdomPair(ValueId(3), DomainId(1)),
            Read::AdomUnknown(Value::int(-9), DomainId(2)),
        ]
        .into_iter()
        .collect();
        cache.insert(
            0xdead_beef,
            RelevanceKind::LongTerm,
            access.clone(),
            vec![(RelationId(0), 12), (RelationId(2), 3)],
            true,
            Some(reads),
        );
        cache.insert(
            0xdead_beef,
            RelevanceKind::Immediate,
            access.clone(),
            vec![(RelationId(0), 12)],
            false,
            None,
        );
        let dir = std::env::temp_dir().join(format!("accrel-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache_round_trip.journal");
        RunJournal::write_to(&path, &[], &cache).unwrap();
        let restored = SharedVerdictCache::new();
        let summary = RunJournal::replay(&path, &restored).unwrap();
        assert_eq!(summary.verdicts_restored, 2);
        assert_eq!(summary.skipped_lines, 0);
        let mut want = cache.entries();
        let mut got = restored.entries();
        want.sort_by(|a, b| (a.1, &a.2).cmp(&(b.1, &b.2)));
        got.sort_by(|a, b| (a.1, &a.2).cmp(&(b.1, &b.2)));
        assert_eq!(want, got);
        std::fs::remove_file(&path).ok();
    }

    /// Satellite regression (cross-process dep-version ordering): two
    /// processes may enumerate a verdict's dependency relations in different
    /// orders — e.g. a journal written from an older HashMap-ordered
    /// snapshot. Publishing and probing must canonicalise the stamp, so an
    /// entry inserted with reversed dep order is still found by a lookup
    /// using sorted order (and vice versa).
    #[test]
    fn shared_keys_canonicalise_dep_version_order() {
        let cache = SharedVerdictCache::new();
        let access = Access::new(AccessMethodId(0), binding(["k"]));
        // Deliberately unsorted, as a foreign journal might carry it.
        cache.insert(
            9,
            RelevanceKind::LongTerm,
            access.clone(),
            vec![(RelationId(2), 3), (RelationId(0), 12)],
            true,
            None,
        );
        let entries = cache.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(
            entries[0].3,
            vec![(RelationId(0), 12), (RelationId(2), 3)],
            "stored stamp must be in canonical (sorted) order"
        );
        // Re-inserting under the sorted order must overwrite, not duplicate.
        cache.insert(
            9,
            RelevanceKind::LongTerm,
            access,
            vec![(RelationId(0), 12), (RelationId(2), 3)],
            true,
            None,
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn truncated_tail_lines_are_skipped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("accrel-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.journal");
        // The torn line's prefix still parses as a valid token — it must be
        // dropped anyway, because a crash mid-append can truncate a record
        // into a different but well-formed one.
        std::fs::write(
            &path,
            format!("{MAGIC}\nrun\naccess m0 s:ok\naccess m0 s:truncat"),
        )
        .unwrap();
        let runs = RunJournal::read_runs(&path).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].access_sequence.len(), 1, "torn tail must be cut");
        let cache = SharedVerdictCache::new();
        let summary = RunJournal::replay(&path, &cache).unwrap();
        assert!(summary.torn_tail);
        assert_eq!(summary.skipped_lines, 0);
        // A genuinely malformed *interior* line is counted as skipped; the
        // newline-terminated tail is not torn.
        std::fs::write(
            &path,
            format!("{MAGIC}\nrun\naccess m0 q\naccess m0 s:ok\n"),
        )
        .unwrap();
        let summary = RunJournal::replay(&path, &cache).unwrap();
        assert_eq!(summary.skipped_lines, 1);
        assert_eq!(summary.runs, 1);
        assert!(!summary.torn_tail);
        std::fs::remove_file(&path).ok();
    }

    /// Values are written as raw UTF-8, so a crash can cut the last line
    /// inside a multi-byte character: that line is a torn tail like any
    /// other, and an interior line that is not UTF-8 is one skipped line —
    /// neither makes the rest of the journal unreadable.
    #[test]
    fn invalid_utf8_costs_one_line_not_the_journal() {
        let dir = std::env::temp_dir().join(format!("accrel-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn_utf8.journal");
        let text = format!("{MAGIC}\nrun\naccess m0 s:ok\naccess m0 s:Zürich\n");
        let cut = text.find('ü').unwrap() + 1;
        assert_eq!(text.as_bytes()[cut - 1], 0xC3);
        std::fs::write(&path, &text.as_bytes()[..cut]).unwrap();
        let runs = RunJournal::read_runs(&path).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].access_sequence.len(), 1, "torn tail must be cut");
        let summary = RunJournal::replay(&path, &SharedVerdictCache::new()).unwrap();
        assert!(summary.torn_tail);
        assert_eq!(summary.skipped_lines, 0);
        // The whole file still reads back, ü included.
        std::fs::write(&path, &text).unwrap();
        let runs = RunJournal::read_runs(&path).unwrap();
        let access = Access::new(AccessMethodId(0), binding(["Zürich"]));
        assert_eq!(runs[0].access_sequence[1], access);

        let mut bytes = format!("{MAGIC}\nrun\naccess m0 s:").into_bytes();
        bytes.extend_from_slice(b"\xFF\naccess m0 s:ok\n");
        std::fs::write(&path, bytes).unwrap();
        let runs = RunJournal::read_runs(&path).unwrap();
        assert_eq!(runs[0].access_sequence.len(), 1);
        let summary = RunJournal::replay(&path, &SharedVerdictCache::new()).unwrap();
        assert_eq!(summary.skipped_lines, 1);
        assert_eq!(summary.runs, 1);
        assert!(!summary.torn_tail);
        std::fs::remove_file(&path).ok();
    }

    /// Appending after a crashed appender starts a fresh line: the torn
    /// tail is cut, never glued onto the new run's first record.
    #[test]
    fn append_run_cuts_a_torn_tail_before_appending() {
        use accrel_engine::scenarios::bank_scenario;
        use accrel_engine::{DeepWebSource, Executor as _, ResponsePolicy, RunRequest};
        use accrel_engine::{Sequential, Strategy};

        let scenario = bank_scenario();
        let source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        let request = RunRequest::new(scenario.query.clone()).with_strategy(Strategy::Exhaustive);
        let report = Sequential::new(&source).execute(&request, &scenario.initial_configuration);
        assert_eq!(report.accesses_made, 13);

        let dir = std::env::temp_dir().join(format!("accrel-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn_append.journal");
        std::fs::write(
            &path,
            format!("{MAGIC}\nrun\naccess m0 s:ok\naccess m0 s:truncat"),
        )
        .unwrap();
        RunJournal::append_run(&path, &report).unwrap();
        let runs = RunJournal::read_runs(&path).unwrap();
        let lengths: Vec<usize> = runs.iter().map(|r| r.access_sequence.len()).collect();
        assert_eq!(lengths, [1, 13]);
        assert_eq!(runs[1].access_sequence, report.access_sequence);
        assert_eq!(runs[1].relevance_verdicts, report.relevance_verdicts);

        // A torn header leaves nothing to keep: the header is written anew.
        std::fs::write(&path, &MAGIC[..5]).unwrap();
        RunJournal::append_run(&path, &report).unwrap();
        assert_eq!(RunJournal::read_runs(&path).unwrap().len(), 1);
        // A missing file gets its header; a complete journal is extended.
        std::fs::remove_file(&path).unwrap();
        RunJournal::append_run(&path, &report).unwrap();
        RunJournal::append_run(&path, &report).unwrap();
        let runs = RunJournal::read_runs(&path).unwrap();
        assert_eq!(runs.len(), 2);
        assert!(runs
            .iter()
            .all(|r| r.access_sequence == report.access_sequence));
        std::fs::remove_file(&path).ok();
    }

    /// Satellite: a header-only journal with no trailing newline is a torn
    /// header — not a valid journal at all.
    #[test]
    fn torn_header_is_an_error() {
        let dir = std::env::temp_dir().join(format!("accrel-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn_header.journal");
        std::fs::write(&path, MAGIC).unwrap();
        assert!(RunJournal::read_runs(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// Satellite: property grid for `R`-token escaping — read sets whose
    /// values carry spaces, percent signs and newlines (the characters the
    /// escaper rewrites) round-trip bit-for-bit through write/parse, for
    /// every value-bearing token kind including the precise-mode prefix
    /// entries.
    #[test]
    fn read_set_tokens_round_trip_awkward_values() {
        let awkward = [
            Value::sym("plain"),
            Value::sym("with space"),
            Value::sym("per%cent"),
            Value::sym("new\nline"),
            Value::sym("%20pre-escaped"),
            Value::sym("comma,inside"),
            Value::sym("  "),
            Value::int(i64::MIN),
            Value::fresh(u64::MAX),
        ];
        for (i, value) in awkward.iter().enumerate() {
            for (j, other) in awkward.iter().enumerate() {
                let rs: ReadSet = [
                    Read::AdomPrefix(DomainId(i as u32), value.clone()),
                    Read::AdomPrefix(DomainId(100 + j as u32), other.clone()),
                    Read::UnknownValue(RelationId(1), value.clone()),
                    Read::AdomUnknown(other.clone(), DomainId(3)),
                    Read::AdomDomain(DomainId(7)),
                    Read::Pair(RelationId(0), ValueId(9)),
                ]
                .into_iter()
                .collect();
                let mut out = String::new();
                write_reads(&mut out, Some(&rs));
                let tokens: Vec<&str> = out.trim_start().split(' ').collect();
                let (parsed, consumed) = parse_reads(&tokens).expect("tokens must parse");
                assert_eq!(consumed, tokens.len());
                assert_eq!(parsed.as_ref(), Some(&rs), "case ({i}, {j})");
            }
        }
        // The no-read-set marker round-trips too.
        let mut out = String::new();
        write_reads(&mut out, None);
        assert_eq!(out, " R-");
        assert_eq!(parse_reads(&["R-"]), Some((None, 1)));
    }

    /// Satellite: a legacy `shared` line written before read sets existed
    /// (no `R` token at all) parses as reads-absent, and a coarse line from
    /// the pre-prefix format (`z`, no `x` tokens) parses to the same coarse
    /// read set it was written from — both stay sound under the precise
    /// eviction rule because `Read::Adom` subsumes every prefix.
    #[test]
    fn legacy_shared_lines_parse_without_read_sets() {
        let dir = std::env::temp_dir().join(format!("accrel-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.journal");
        std::fs::write(
            &path,
            format!("{MAGIC}\nshared 2a L t 1 r0:5 m1 s:x\nshared 2a I f 0 R2 l0 z m0 s:y\n"),
        )
        .unwrap();
        let cache = SharedVerdictCache::new();
        let summary = RunJournal::replay(&path, &cache).unwrap();
        assert_eq!(summary.verdicts_restored, 2);
        assert_eq!(summary.skipped_lines, 0);
        assert!(!summary.torn_tail);
        let entries = cache.entries();
        let reads_absent = entries
            .iter()
            .find(|e| e.1 == RelevanceKind::LongTerm)
            .unwrap();
        assert_eq!(reads_absent.5, None, "pre-read-set line must carry None");
        let coarse = entries
            .iter()
            .find(|e| e.1 == RelevanceKind::Immediate)
            .unwrap();
        let rs = coarse.5.as_ref().unwrap();
        assert!(
            rs.iter().any(|r| *r == Read::Adom),
            "coarse adom flag must survive"
        );
        assert!(!rs.iter().any(|r| matches!(r, Read::AdomPrefix(..))));
        assert!(rs.iter().any(|r| *r == Read::Relation(RelationId(0))));
        std::fs::remove_file(&path).ok();
    }

    /// Counts read off a line are bounded by the tokens that follow them: a
    /// dependency or read count near `usize::MAX` is a malformed line, not
    /// an arithmetic overflow.
    #[test]
    fn huge_token_counts_are_skipped_as_malformed() {
        let dir = std::env::temp_dir().join(format!("accrel-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("huge_counts.journal");
        let max = usize::MAX;
        std::fs::write(
            &path,
            format!("{MAGIC}\nshared 0 I t {max} m0\nshared 0 I t 0 R{max} m0\n"),
        )
        .unwrap();
        let summary = RunJournal::replay(&path, &SharedVerdictCache::new()).unwrap();
        assert_eq!(summary.skipped_lines, 2);
        assert_eq!(summary.verdicts_restored, 0);
        std::fs::remove_file(&path).ok();
    }

    /// A journal written from a real serve (a run and the shared cache's
    /// entries, read sets included), mutated at random: byte flips, cuts,
    /// inserted spaces and inserted `%` sequences. Reading and replaying
    /// each mutant never panics, and a mutant that is still a journal
    /// never yields more runs or verdicts than its lines can hold.
    #[test]
    fn mutated_journals_never_panic_the_reader() {
        use crate::{AsyncFederation, QuerySessionRegistry, SimulatedSource};
        use accrel_engine::scenarios::bank_scenario;
        use accrel_engine::RunRequest;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let scenario = bank_scenario();
        let federation = AsyncFederation::single_simulated(SimulatedSource::exact(
            "bank",
            scenario.instance.clone(),
            scenario.methods.clone(),
        ));
        let registry = QuerySessionRegistry::new(&federation);
        let request = [RunRequest::new(scenario.query.clone())];
        let live = registry.serve(&request, &scenario.initial_configuration);
        let run = &live.sessions[0].report;
        let dir = std::env::temp_dir().join(format!("accrel-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mutants.journal");
        RunJournal::write_to(&path, &[run], registry.verdict_cache()).unwrap();
        let journal = std::fs::read(&path).unwrap();
        let text = String::from_utf8(journal.clone()).unwrap();
        assert!(text.contains("\nshared ") && text.contains(" R"), "{text}");
        let summary = RunJournal::replay(&path, &SharedVerdictCache::new()).unwrap();
        assert_eq!(summary.skipped_lines, 0);
        assert!(summary.verdicts_restored > 0);

        let inserts: [&[u8]; 9] = [
            b"%", b"%2", b"%+5", b"%41", b"%ff", b"%0A", b"%25", b"%20", b" ",
        ];
        let mut rng = StdRng::seed_from_u64(0x6a6f_7572);
        for _ in 0..400 {
            let mut bytes = journal.clone();
            for _ in 0..rng.gen_range(1..4) {
                let at = rng.gen_range(0..bytes.len() + 1);
                match rng.gen_range(0..4) {
                    0 => {
                        if let Some(b) = bytes.get_mut(at) {
                            *b ^= 1 << rng.gen_range(0..8);
                        }
                    }
                    1 => bytes.truncate(at),
                    2 => drop(bytes.splice(at..at, *b" ")),
                    _ => {
                        let insert = inserts[rng.gen_range(0..inserts.len())];
                        drop(bytes.splice(at..at, insert.iter().copied()));
                    }
                }
            }
            std::fs::write(&path, &bytes).unwrap();
            let lines = bytes.iter().filter(|&&b| b == b'\n').count();
            if let Ok(runs) = RunJournal::read_runs(&path) {
                assert!(runs.len() <= lines);
            }
            if let Ok(summary) = RunJournal::replay(&path, &SharedVerdictCache::new()) {
                assert!(summary.runs + summary.verdicts_restored + summary.skipped_lines <= lines);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_header_is_an_error() {
        let dir = std::env::temp_dir().join(format!("accrel-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad_header.journal");
        std::fs::write(&path, "not a journal\n").unwrap();
        assert!(RunJournal::read_runs(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
