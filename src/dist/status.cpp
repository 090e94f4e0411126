#include "dist/status.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/format.hpp"
#include "dist/json.hpp"

namespace mtr::dist {

std::string render_status_json(const StatusSnapshot& s) {
  std::string out = "{\"record\": \"status\", \"sweep\": " +
                    json_quote(s.sweep) +
                    ", \"cells_done\": " + std::to_string(s.cells_done) +
                    ", \"cells_total\": " + std::to_string(s.cells_total) +
                    ", \"elapsed_seconds\": " + json_number(s.elapsed_seconds) +
                    ", \"eta_seconds\": ";
  out += s.eta_seconds ? json_number(*s.eta_seconds) : "null";
  out += ", \"workers\": [";
  bool first = true;
  for (const double f : s.worker_busy_fraction) {
    if (!first) out += ", ";
    first = false;
    out += json_number(f);
  }
  out += "]}\n";
  return out;
}

void create_parent_dirs(const std::string& path) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
}

void publish_file(const std::string& path, std::string_view bytes,
                  std::string_view label) {
  const std::string what = std::string(label) + " file";
  create_parent_dirs(path);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + what + ": " + tmp);
    out << bytes;
    out.flush();
    if (!out) throw std::runtime_error("cannot write " + what + ": " + tmp);
  }
  // rename(2) within one directory is atomic: a concurrent reader sees
  // either the previous document or this one, never a prefix.
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec)
    throw std::runtime_error("cannot publish " + what + " " + path + ": " +
                             ec.message());
}

void write_status_file(const std::string& path, const StatusSnapshot& s) {
  publish_file(path, render_status_json(s), "status");
}

StatusSnapshot read_status_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open status file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const json::Value doc = json::parse_document(buf.str());
  if (json::get_string(doc, "record") != "status")
    throw std::runtime_error(path + ": not a status heartbeat document");
  StatusSnapshot s;
  s.sweep = json::get_string(doc, "sweep");
  s.cells_done = json::get_u64(doc, "cells_done");
  s.cells_total = json::get_u64(doc, "cells_total");
  s.elapsed_seconds = json::get_f64(doc, "elapsed_seconds");
  const json::Value& eta = json::require(doc, "eta_seconds");
  if (eta.kind != json::Value::Kind::kNull)
    s.eta_seconds = json::as_f64(eta, "eta_seconds");
  const json::Value& workers = json::get_array(doc, "workers");
  s.worker_busy_fraction.reserve(workers.items.size());
  for (const json::Value& w : workers.items)
    s.worker_busy_fraction.push_back(json::as_f64(w, "workers entry"));
  return s;
}

std::optional<double> status_file_age_seconds(const std::string& path) {
  std::error_code ec;
  const auto mtime = std::filesystem::last_write_time(path, ec);
  if (ec) return std::nullopt;
  const auto age = std::filesystem::file_time_type::clock::now() - mtime;
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(age).count();
  return seconds > 0.0 ? seconds : 0.0;
}

}  // namespace mtr::dist
