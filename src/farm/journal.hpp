#pragma once

// Append-only JSONL campaign journal for the simulation farm.
//
// One JSON object per line, written in job order as runs reach a terminal
// state, so an interrupted campaign's journal is a prefix (plus marker
// records) of the uninterrupted one and `--resume` can skip every run that
// already has a terminal record. Run records carry no wall-clock data —
// two campaigns over the same work produce byte-identical run records,
// which is what the CI resume-diff asserts.
//
// Record types:
//   {"type":"campaign","version":1,"config_hash":"...","config":"...",
//    "jobs":N,"resumed":false}
//   {"type":"incident","key":"...","arch":"...","seed":N,"incident":
//    "deadline|exception|nondeterministic|repeated-failure","attempt":N,
//    "detail":"...","artifact":"<replayable schedule>"}
//   {"type":"run","key":"...","arch":"...","seed":N,"scenario":"...",
//    "status":"ok|failed|quarantined","reason":"...","digest":"...",
//    "attempts":N}
//   {"type":"interrupted","completed":N}
//   {"type":"done","ok":N,"failed":N,"quarantined":N}
//
// A record counts once its newline is written. A crash mid-append leaves
// a torn final line without one: read_journal() skips it, so its run
// runs again on --resume, and JournalWriter::open() cuts it off before
// appending.

#include <cstdint>
#include <fstream>
#include <string>
#include <unordered_map>

namespace recosim::farm {

/// FNV-1a 64-bit over `text`; the farm's content hash for run keys,
/// campaign configs and result digests.
std::uint64_t fnv1a(const std::string& text);
/// fnv1a rendered as 16 lowercase hex digits.
std::string content_hash(const std::string& text);

/// `s` escaped for the inside of a JSON string literal (json::escape).
std::string json_escape(const std::string& s);

/// Terminal record of one run, as read back from a journal.
struct JournalRun {
  std::string key;       ///< content hash of arch|seed|scenario
  std::string arch;
  std::uint64_t seed = 0;
  std::string scenario;
  std::string status;    ///< "ok" | "failed" | "quarantined"
  std::string reason;
  std::string digest;
  int attempts = 0;
};

/// Parsed journal: campaign header(s) plus every terminal run record.
struct JournalContents {
  bool valid = false;
  std::string error;
  std::string config_hash;   ///< from the most recent campaign header
  std::unordered_map<std::string, JournalRun> runs;  ///< by key hash
  std::uint64_t interruptions = 0;
};

/// Read a journal file back. A missing file yields valid=false with an
/// empty error (nothing to resume); a malformed line yields valid=false
/// with a "line L:C: ..." diagnostic. A torn final line is skipped.
JournalContents read_journal(const std::string& path);

/// Append-only writer; every record is flushed as soon as it is written so
/// a killed campaign keeps all completed records.
class JournalWriter {
 public:
  JournalWriter() = default;
  /// Opens `path` for append, first cutting off a torn final line. ok()
  /// reports failure to open.
  void open(const std::string& path);
  bool ok() const { return !path_.empty() && out_.good(); }
  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  void campaign(const std::string& config, std::size_t jobs, bool resumed);
  void incident(const JournalRun& run, const std::string& incident,
                int attempt, const std::string& detail,
                const std::string& artifact);
  void run(const JournalRun& run);
  void interrupted(std::size_t completed);
  void done(std::size_t ok, std::size_t failed, std::size_t quarantined);

 private:
  void line(const std::string& text);
  std::string path_;
  std::ofstream out_;
};

}  // namespace recosim::farm
