#include "farm/journal.hpp"

#include <cstdio>
#include <filesystem>
#include <iterator>
#include <optional>

#include "json/json.hpp"

namespace recosim::farm {

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string content_hash(const std::string& text) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a(text)));
  return buf;
}

std::string json_escape(const std::string& s) { return json::escape(s); }

JournalContents read_journal(const std::string& path) {
  JournalContents jc;
  std::ifstream in(path, std::ios::binary);
  if (!in) return jc;  // nothing to resume; valid stays false, no error
  std::string line;
  int lineno = 0;
  const auto fail = [&](int column, const std::string& what) {
    jc.valid = false;
    jc.error = "line " + std::to_string(lineno) + ":" +
               std::to_string(column) + ": " + what;
    return jc;
  };
  while (std::getline(in, line)) {
    ++lineno;
    // getline stopped at the end of the file, not at a newline: the final
    // append was cut short, and its run has to run again.
    if (in.eof()) break;
    if (line.empty()) continue;
    json::Error err;
    const std::optional<json::Value> record = json::parse(line, &err);
    if (!record) return fail(err.column, err.message);
    const std::optional<std::string> type = record->get_string("type");
    if (!type) return fail(1, "no \"type\" field");
    if (*type == "campaign") {
      jc.config_hash = record->get_string("config_hash").value_or("");
      jc.valid = true;
    } else if (*type == "run") {
      JournalRun r;
      r.key = record->get_string("key").value_or("");
      r.arch = record->get_string("arch").value_or("");
      r.seed = record->get_u64("seed").value_or(0);
      r.scenario = record->get_string("scenario").value_or("");
      r.status = record->get_string("status").value_or("");
      r.reason = record->get_string("reason").value_or("");
      r.digest = record->get_string("digest").value_or("");
      r.attempts = static_cast<int>(record->get_u64("attempts").value_or(0));
      if (r.key.empty() || r.status.empty())
        return fail(1, "malformed run record");
      jc.runs[r.key] = std::move(r);
    } else if (*type == "interrupted") {
      ++jc.interruptions;
    }
    // "incident" and "done" records are informational; resume ignores them.
  }
  return jc;
}

void JournalWriter::open(const std::string& path) {
  path_ = path;
  // Cut a torn final line off before appending to it.
  std::ifstream in(path, std::ios::binary);
  const std::string s(std::istreambuf_iterator<char>(in), {});
  std::error_code ec;
  if (!s.empty() && s.back() != '\n')
    std::filesystem::resize_file(path, s.rfind('\n') + 1, ec);  // npos+1 = 0
  if (ec)
    out_.setstate(std::ios::failbit);
  else
    out_.open(path, std::ios::app);
}

void JournalWriter::line(const std::string& text) {
  if (!enabled()) return;
  out_ << text << "\n";
  out_.flush();
}

void JournalWriter::campaign(const std::string& config, std::size_t jobs,
                             bool resumed) {
  json::Writer w(json::Style::kCompact);
  w.begin_object().field("type", "campaign").field("version", 1);
  w.field("config_hash", content_hash(config)).field("config", config);
  line(w.field("jobs", jobs).field("resumed", resumed).end().str());
}

void JournalWriter::incident(const JournalRun& run,
                             const std::string& incident, int attempt,
                             const std::string& detail,
                             const std::string& artifact) {
  json::Writer w(json::Style::kCompact);
  w.begin_object().field("type", "incident").field("key", run.key);
  w.field("arch", run.arch).field("seed", run.seed);
  w.field("incident", incident).field("attempt", attempt);
  line(w.field("detail", detail).field("artifact", artifact).end().str());
}

void JournalWriter::run(const JournalRun& r) {
  json::Writer w(json::Style::kCompact);
  w.begin_object().field("type", "run").field("key", r.key);
  w.field("arch", r.arch).field("seed", r.seed).field("scenario", r.scenario);
  w.field("status", r.status).field("reason", r.reason);
  line(w.field("digest", r.digest).field("attempts", r.attempts).end().str());
}

void JournalWriter::interrupted(std::size_t completed) {
  json::Writer w(json::Style::kCompact);
  w.begin_object().field("type", "interrupted").field("completed", completed);
  line(w.end().str());
}

void JournalWriter::done(std::size_t ok, std::size_t failed,
                         std::size_t quarantined) {
  json::Writer w(json::Style::kCompact);
  w.begin_object().field("type", "done").field("ok", ok);
  line(w.field("failed", failed).field("quarantined", quarantined).end().str());
}

}  // namespace recosim::farm
