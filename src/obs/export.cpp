#include "csecg/obs/export.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <variant>
#include <vector>

#include "csecg/util/table.hpp"

namespace csecg::obs {

namespace {

// ------------------------------------------------------------ JSON output --

/// Escapes the few characters our instrument names could ever contain.
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "0";  // JSON has no inf/nan; exporters never emit them anyway
  }
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.0f", v);
    return buffer;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

// ------------------------------------------------------------- JSON input --

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

/// Minimal JSON value covering everything export_jsonl emits.
struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      value = nullptr;

  bool is_number() const { return std::holds_alternative<double>(value); }
  double number() const { return std::get<double>(value); }
  bool is_string() const {
    return std::holds_alternative<std::string>(value);
  }
  const std::string& string() const { return std::get<std::string>(value); }
  const JsonArray* array() const {
    const auto* p = std::get_if<std::shared_ptr<JsonArray>>(&value);
    return p == nullptr ? nullptr : p->get();
  }
  const JsonObject* object() const {
    const auto* p = std::get_if<std::shared_ptr<JsonObject>>(&value);
    return p == nullptr ? nullptr : p->get();
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool parse(JsonValue& out) {
    skip_space();
    if (!parse_value(out)) {
      return false;
    }
    skip_space();
    return pos_ == text_.size();
  }

 private:
  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_value(JsonValue& out) {
    skip_space();
    if (pos_ >= text_.size()) {
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') {
      return parse_object(out);
    }
    if (c == '[') {
      return parse_array(out);
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(s)) {
        return false;
      }
      out.value = std::move(s);
      return true;
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      out.value = true;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      out.value = false;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      out.value = nullptr;
      return true;
    }
    return parse_number(out);
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) {
      return false;
    }
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        return false;
      }
      const char escaped = text_[pos_++];
      switch (escaped) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return false;
          }
          const unsigned code =
              static_cast<unsigned>(std::stoul(text_.substr(pos_, 4),
                                               nullptr, 16));
          pos_ += 4;
          // Instrument names are ASCII; anything else degrades to '?'.
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default: return false;
      }
    }
    return false;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      return false;
    }
    try {
      out.value = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      return false;
    }
    return true;
  }

  bool parse_array(JsonValue& out) {
    if (!consume('[')) {
      return false;
    }
    auto array = std::make_shared<JsonArray>();
    skip_space();
    if (consume(']')) {
      out.value = std::move(array);
      return true;
    }
    while (true) {
      JsonValue element;
      if (!parse_value(element)) {
        return false;
      }
      array->push_back(std::move(element));
      if (consume(']')) {
        out.value = std::move(array);
        return true;
      }
      if (!consume(',')) {
        return false;
      }
    }
  }

  bool parse_object(JsonValue& out) {
    if (!consume('{')) {
      return false;
    }
    auto object = std::make_shared<JsonObject>();
    skip_space();
    if (consume('}')) {
      out.value = std::move(object);
      return true;
    }
    while (true) {
      std::string key;
      skip_space();
      if (!parse_string(key)) {
        return false;
      }
      if (!consume(':')) {
        return false;
      }
      JsonValue element;
      if (!parse_value(element)) {
        return false;
      }
      (*object)[std::move(key)] = std::move(element);
      if (consume('}')) {
        out.value = std::move(object);
        return true;
      }
      if (!consume(',')) {
        return false;
      }
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

const JsonValue* find(const JsonObject& object, const char* key) {
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

bool number_field(const JsonObject& object, const char* key, double& out) {
  const JsonValue* v = find(object, key);
  if (v == nullptr || !v->is_number()) {
    return false;
  }
  out = v->number();
  return true;
}

// ----------------------------------------------------------- line imports --

bool import_counter(const JsonObject& object, Session& session) {
  const JsonValue* name = find(object, "name");
  double value = 0.0;
  if (name == nullptr || !name->is_string() ||
      !number_field(object, "value", value) || value < 0.0) {
    return false;
  }
  session.registry()
      .counter(name->string())
      .add(static_cast<std::uint64_t>(value));
  return true;
}

bool import_gauge(const JsonObject& object, Session& session) {
  const JsonValue* name = find(object, "name");
  double value = 0.0;
  if (name == nullptr || !name->is_string() ||
      !number_field(object, "value", value)) {
    return false;
  }
  Gauge& gauge = session.registry().gauge(name->string());
  double max = value;
  (void)number_field(object, "max", max);
  gauge.set(max);
  gauge.set(value);  // value last so it wins; max keeps the high water
  return true;
}

bool import_histogram(const JsonObject& object, Session& session) {
  const JsonValue* name = find(object, "name");
  const JsonValue* bounds = find(object, "bounds");
  const JsonValue* buckets = find(object, "buckets");
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  if (name == nullptr || !name->is_string() || bounds == nullptr ||
      bounds->array() == nullptr || buckets == nullptr ||
      buckets->array() == nullptr || !number_field(object, "sum", sum) ||
      !number_field(object, "min", min) ||
      !number_field(object, "max", max)) {
    return false;
  }
  HistogramSpec spec;
  for (const auto& bound : *bounds->array()) {
    if (!bound.is_number()) {
      return false;
    }
    spec.bounds.push_back(bound.number());
  }
  std::vector<std::uint64_t> counts;
  for (const auto& bucket : *buckets->array()) {
    if (!bucket.is_number() || bucket.number() < 0.0) {
      return false;
    }
    counts.push_back(static_cast<std::uint64_t>(bucket.number()));
  }
  if (spec.bounds.empty() || counts.size() != spec.bounds.size() + 1) {
    return false;
  }
  return session.registry()
      .histogram(name->string(), spec)
      .inject(counts, sum, min, max);
}

bool import_span(const JsonObject& object, Session& session,
                 std::vector<std::pair<std::string, double>>& replayed) {
  const JsonValue* name = find(object, "name");
  if (name == nullptr || !name->is_string()) {
    return false;
  }
  SpanRecord record;
  record.name = name->string();
  double seq = -1.0;
  if (number_field(object, "seq", seq) && seq >= 0.0) {
    record.sequence = static_cast<std::uint64_t>(seq);
  }
  (void)number_field(object, "start", record.start_s);
  if (!number_field(object, "dur", record.duration_s)) {
    return false;
  }
  double depth = 0.0;
  (void)number_field(object, "depth", depth);
  record.depth = static_cast<int>(depth);
  if (const JsonValue* attrs = find(object, "attrs");
      attrs != nullptr && attrs->object() != nullptr) {
    for (const auto& [key, value] : *attrs->object()) {
      if (!value.is_number()) {
        return false;
      }
      record.attributes.emplace_back(key, value.number());
    }
  }
  // Replay into the trace buffer without re-feeding the stage
  // histograms: the dump carries those as first-class histogram lines
  // (they can hold merged or span-overflow data the raw spans cannot
  // regenerate), so feeding the spans again would double count. The
  // (name, duration) pair is kept so import_jsonl can rebuild the stage
  // histograms for legacy dumps that omitted them.
  replayed.emplace_back(record.name, record.duration_s);
  session.tracer().replay(std::move(record));
  return true;
}

/// True for "stage.*" histograms, the ones record() derives from spans.
/// They are still exported (see export_jsonl) — this predicate only
/// drives the summary renderer and the legacy-import fallback.
bool derived_from_spans(const std::string& name) {
  return name.rfind("stage.", 0) == 0;
}

}  // namespace

void export_jsonl(const Session& session, std::ostream& os) {
  const Registry& registry = session.registry();
  for (const auto& [name, counter] : registry.counters()) {
    os << "{\"type\":\"counter\",\"name\":" << json_string(name)
       << ",\"value\":" << counter->value() << "}\n";
  }
  for (const auto& [name, gauge] : registry.gauges()) {
    os << "{\"type\":\"gauge\",\"name\":" << json_string(name)
       << ",\"value\":" << json_number(gauge->value())
       << ",\"max\":" << json_number(gauge->max()) << "}\n";
  }
  // Every histogram is exported, including the span-derived "stage.*"
  // ones. Those used to be skipped and rebuilt from the spans on import,
  // but after a Registry::merge the merged stage data exists only in the
  // histograms (tracer buffers are never merged), and a full buffer
  // drops spans while the histograms keep counting — either way the
  // spans under-represent the histogram, so skipping loses data.
  // import_span compensates by replaying spans without the histogram
  // fold.
  for (const auto& [name, histogram] : registry.histograms()) {
    os << "{\"type\":\"histogram\",\"name\":" << json_string(name)
       << ",\"bounds\":[";
    const auto& bounds = histogram->bounds();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      os << (i == 0 ? "" : ",") << json_number(bounds[i]);
    }
    os << "],\"buckets\":[";
    const auto buckets = histogram->bucket_counts();
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      os << (i == 0 ? "" : ",") << buckets[i];
    }
    os << "],\"sum\":" << json_number(histogram->sum())
       << ",\"min\":" << json_number(histogram->min())
       << ",\"max\":" << json_number(histogram->max()) << "}\n";
  }
  for (const auto& span : session.tracer().snapshot()) {
    os << "{\"type\":\"span\",\"name\":" << json_string(span.name);
    if (span.sequence != kNoSequence) {
      os << ",\"seq\":" << span.sequence;
    }
    os << ",\"start\":" << json_number(span.start_s)
       << ",\"dur\":" << json_number(span.duration_s)
       << ",\"depth\":" << span.depth;
    if (!span.attributes.empty()) {
      os << ",\"attrs\":{";
      for (std::size_t i = 0; i < span.attributes.size(); ++i) {
        os << (i == 0 ? "" : ",") << json_string(span.attributes[i].first)
           << ":" << json_number(span.attributes[i].second);
      }
      os << "}";
    }
    os << "}\n";
  }
}

bool import_jsonl(std::istream& is, Session& session, std::string* error) {
  const auto fail = [&](std::size_t line, const char* reason) {
    if (error != nullptr) {
      std::ostringstream message;
      message << "line " << line << ": " << reason;
      *error = message.str();
    }
    return false;
  };

  std::string line;
  std::size_t line_number = 0;
  // Spans replayed from this dump, and whether the dump carried its own
  // "stage.*" histogram lines. Current dumps do (the histograms are the
  // source of truth; spans replay without re-feeding them). Legacy dumps
  // omitted them, so the stage histograms are rebuilt from the spans at
  // the end.
  std::vector<std::pair<std::string, double>> replayed;
  bool stage_histograms_seen = false;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    JsonValue value;
    if (!JsonParser(line).parse(value) || value.object() == nullptr) {
      return fail(line_number, "not a JSON object");
    }
    const JsonObject& object = *value.object();
    const JsonValue* type = find(object, "type");
    if (type == nullptr || !type->is_string()) {
      return fail(line_number, "missing \"type\"");
    }
    bool ok = false;
    if (type->string() == "counter") {
      ok = import_counter(object, session);
    } else if (type->string() == "gauge") {
      ok = import_gauge(object, session);
    } else if (type->string() == "histogram") {
      if (const JsonValue* name = find(object, "name");
          name != nullptr && name->is_string() &&
          derived_from_spans(name->string())) {
        stage_histograms_seen = true;
      }
      ok = import_histogram(object, session);
    } else if (type->string() == "span") {
      ok = import_span(object, session, replayed);
    } else {
      return fail(line_number, "unknown record type");
    }
    if (!ok) {
      return fail(line_number, "malformed record");
    }
  }
  if (!stage_histograms_seen) {
    for (const auto& [name, duration_s] : replayed) {
      session.registry().histogram("stage." + name + ".seconds")
          .add(duration_s);
    }
  }
  return true;
}

void render_slo_table(std::span<const SloRow> rows, std::ostream& os) {
  util::Table table({"shard", "offered", "decoded", "concealed",
                     "shed conceal", "shed drop", "shed %", "queue hw",
                     "p50 ms", "p99 ms", "e2e p50 ms", "e2e p99 ms",
                     "deadline miss"});
  table.set_title("Gateway SLO");
  for (const SloRow& row : rows) {
    const std::size_t shed = row.shed_concealed + row.shed_dropped;
    const double shed_rate =
        row.offered == 0 ? 0.0
                         : static_cast<double>(shed) /
                               static_cast<double>(row.offered);
    std::string queue = std::to_string(row.queue_high_water);
    if (row.queue_depth > 0) {
      queue += '/';
      queue += std::to_string(row.queue_depth);
    }
    table.add_row({row.label, std::to_string(row.offered),
                   std::to_string(row.decoded),
                   std::to_string(row.concealed),
                   std::to_string(row.shed_concealed),
                   std::to_string(row.shed_dropped),
                   util::format_percent(shed_rate, 2), queue,
                   util::format_double(row.p50_ms, 3),
                   util::format_double(row.p99_ms, 3),
                   util::format_double(row.e2e_p50_ms, 3),
                   util::format_double(row.e2e_p99_ms, 3),
                   std::to_string(row.deadline_misses)});
  }
  table.print(os);
}

// ------------------------------------------------------- prometheus output --

namespace {

/// `csecg_` + name with every non-alphanumeric flattened to `_`
/// (Prometheus metric names admit [a-zA-Z0-9_:]; our dotted scheme
/// maps 1:1 onto underscores).
std::string prom_name(const std::string& name) {
  std::string out = "csecg_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9');
    out += alnum ? c : '_';
  }
  return out;
}

}  // namespace

void render_prometheus(const Registry& registry, std::ostream& os) {
  for (const auto& [name, counter] : registry.counters()) {
    const std::string metric = prom_name(name) + "_total";
    os << "# TYPE " << metric << " counter\n";
    os << metric << " " << counter->value() << "\n";
  }
  for (const auto& [name, gauge] : registry.gauges()) {
    const std::string metric = prom_name(name);
    os << "# TYPE " << metric << " gauge\n";
    os << metric << " " << json_number(gauge->value()) << "\n";
    os << "# TYPE " << metric << "_max gauge\n";
    os << metric << "_max " << json_number(gauge->max()) << "\n";
  }
  for (const auto& [name, histogram] : registry.histograms()) {
    const std::string metric = prom_name(name);
    os << "# TYPE " << metric << " histogram\n";
    const std::vector<double>& bounds = histogram->bounds();
    const std::vector<std::uint64_t> buckets = histogram->bucket_counts();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cumulative += buckets[i];
      os << metric << "_bucket{le=\"" << json_number(bounds[i]) << "\"} "
         << cumulative << "\n";
    }
    cumulative += buckets.back();
    os << metric << "_bucket{le=\"+Inf\"} " << cumulative << "\n";
    os << metric << "_sum " << json_number(histogram->sum()) << "\n";
    os << metric << "_count " << cumulative << "\n";
  }
}

void render_summary(const Session& session, std::ostream& os) {
  const Registry& registry = session.registry();

  // Per-stage latency quantiles from the span-fed histograms.
  util::Table stages({"stage", "windows", "p50 (ms)", "p95 (ms)",
                      "p99 (ms)", "max (ms)"});
  stages.set_title("Per-stage latency (from spans)");
  for (const auto& [name, histogram] : registry.histograms()) {
    if (!derived_from_spans(name)) {
      continue;
    }
    // stage.<name>.seconds -> <name>
    std::string stage = name.substr(6);
    if (stage.size() > 8 && stage.compare(stage.size() - 8, 8, ".seconds") == 0) {
      stage.resize(stage.size() - 8);
    }
    stages.add_row({stage, std::to_string(histogram->count()),
                    util::format_double(histogram->quantile(0.50) * 1e3, 3),
                    util::format_double(histogram->quantile(0.95) * 1e3, 3),
                    util::format_double(histogram->quantile(0.99) * 1e3, 3),
                    util::format_double(histogram->max() * 1e3, 3)});
  }
  if (stages.rows() > 0) {
    stages.print(os);
    os << "\n";
  }

  // FISTA iteration distribution (the Fig 7 currency).
  if (const Histogram* iterations =
          registry.find_histogram("fista.iterations");
      iterations != nullptr && iterations->count() > 0) {
    util::Table fista({"metric", "value"});
    fista.set_title("FISTA iterations per window");
    fista.add_row({"windows", std::to_string(iterations->count())});
    fista.add_row({"mean", util::format_double(iterations->mean(), 1)});
    fista.add_row({"p50", util::format_double(iterations->quantile(0.50), 0)});
    fista.add_row({"p95", util::format_double(iterations->quantile(0.95), 0)});
    fista.add_row({"p99", util::format_double(iterations->quantile(0.99), 0)});
    fista.add_row({"max", util::format_double(iterations->max(), 0)});
    fista.print(os);

    // Compact bucket bars: iteration-count distribution at a glance.
    const auto& bounds = iterations->bounds();
    const auto buckets = iterations->bucket_counts();
    std::uint64_t peak = 1;
    for (const auto c : buckets) {
      peak = std::max(peak, c);
    }
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i] == 0) {
        continue;
      }
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const std::string hi =
          i < bounds.size() ? util::format_double(bounds[i], 0) : "inf";
      const auto width = static_cast<std::size_t>(
          1 + 39.0 * static_cast<double>(buckets[i]) /
                  static_cast<double>(peak));
      os << "  " << util::format_double(lo, 0) << "-" << hi << " |"
         << std::string(width, '#') << " " << buckets[i] << "\n";
    }
    os << "\n";
  }

  util::Table counters({"counter", "value"});
  counters.set_title("Counters");
  for (const auto& [name, counter] : registry.counters()) {
    counters.add_row({name, std::to_string(counter->value())});
  }
  if (counters.rows() > 0) {
    counters.print(os);
    os << "\n";
  }

  util::Table gauges({"gauge", "value", "max"});
  gauges.set_title("Gauges");
  for (const auto& [name, gauge] : registry.gauges()) {
    gauges.add_row({name, util::format_double(gauge->value(), 4),
                    util::format_double(gauge->max(), 4)});
  }
  if (gauges.rows() > 0) {
    gauges.print(os);
    os << "\n";
  }

  const Counter* windows = registry.find_counter("deadline.windows");
  const Counter* misses = registry.find_counter("deadline.misses");
  if (windows != nullptr && windows->value() > 0 && misses != nullptr) {
    os << "deadline: " << misses->value() << "/" << windows->value()
       << " windows missed the real-time budget (miss rate "
       << util::format_percent(
              static_cast<double>(misses->value()) /
              static_cast<double>(windows->value()), 2)
       << ")\n";
  }
  os << "spans recorded: " << session.tracer().recorded();
  if (session.tracer().dropped() > 0) {
    os << " (+" << session.tracer().dropped() << " dropped at capacity)";
  }
  os << "\n";
}

}  // namespace csecg::obs
