#include "core/serialize.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "systems/test_systems.h"

namespace mlck::core {

using util::Json;

namespace {

Json::Array to_number_array(const std::vector<double>& values) {
  Json::Array out;
  out.reserve(values.size());
  for (const double v : values) out.emplace_back(v);
  return out;
}

Json::Array to_number_array(const std::vector<int>& values) {
  Json::Array out;
  out.reserve(values.size());
  for (const int v : values) out.emplace_back(v);
  return out;
}

std::vector<double> doubles_from(const Json& doc, const std::string& key) {
  std::vector<double> out;
  for (const auto& item : doc.at(key).as_array()) {
    out.push_back(item.as_number());
  }
  return out;
}

std::vector<int> ints_from(const Json& doc, const std::string& key) {
  std::vector<int> out;
  for (const auto& item : doc.at(key).as_array()) {
    out.push_back(util::json_integer<int>(item, key));
  }
  return out;
}

}  // namespace

Json to_json(const systems::SystemConfig& system) {
  Json::Object doc;
  doc["name"] = Json(system.name);
  doc["mtbf"] = Json(system.mtbf);
  doc["severity_probability"] =
      Json(to_number_array(system.severity_probability));
  doc["checkpoint_cost"] = Json(to_number_array(system.checkpoint_cost));
  doc["restart_cost"] = Json(to_number_array(system.restart_cost));
  doc["base_time"] = Json(system.base_time);
  return Json(std::move(doc));
}

systems::SystemConfig system_from_json(const Json& doc) {
  systems::SystemConfig system;
  if (const Json* name = doc.find("name")) system.name = name->as_string();
  else system.name = "unnamed";
  system.mtbf = doc.at("mtbf").as_number();
  system.severity_probability = doubles_from(doc, "severity_probability");
  system.checkpoint_cost = doubles_from(doc, "checkpoint_cost");
  system.restart_cost = doc.find("restart_cost") != nullptr
                            ? doubles_from(doc, "restart_cost")
                            : system.checkpoint_cost;
  system.base_time = doc.at("base_time").as_number();
  system.validate();
  return system;
}

Json to_json(const CheckpointPlan& plan) {
  Json::Object doc;
  doc["tau0"] = Json(plan.tau0);
  doc["levels"] = Json(to_number_array(plan.levels));
  doc["counts"] = Json(to_number_array(plan.counts));
  return Json(std::move(doc));
}

CheckpointPlan plan_from_json(const Json& doc) {
  CheckpointPlan plan;
  plan.tau0 = doc.at("tau0").as_number();
  plan.levels = ints_from(doc, "levels");
  plan.counts = doc.find("counts") != nullptr ? ints_from(doc, "counts")
                                              : std::vector<int>{};
  return plan;
}

Json to_json(const IntervalSchedule& schedule) {
  Json::Object doc;
  doc["levels"] = Json(to_number_array(schedule.levels));
  doc["periods"] = Json(to_number_array(schedule.periods));
  return Json(std::move(doc));
}

IntervalSchedule interval_schedule_from_json(const Json& doc) {
  IntervalSchedule schedule;
  schedule.levels = ints_from(doc, "levels");
  schedule.periods = doubles_from(doc, "periods");
  return schedule;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out << contents;
  if (!out) throw std::runtime_error("write failed: " + path);
}

systems::SystemConfig load_system(const std::string& name_or_path) {
  for (auto& sys : systems::table1_systems()) {
    if (sys.name == name_or_path) return sys;
  }
  return system_from_json(Json::parse(read_file(name_or_path)));
}

}  // namespace mlck::core
