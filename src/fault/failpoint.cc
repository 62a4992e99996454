#include "fault/failpoint.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <new>
#include <thread>

#include "common/string_util.h"

namespace autoem {
namespace fault {

namespace internal {

SiteRegistration::SiteRegistration(const char* site) {
  FailpointRegistry::Global().RegisterSite(site);
}

}  // namespace internal

FailpointRegistry& FailpointRegistry::Global() {
  // Leaked (never destroyed): failpoint sites may be evaluated from worker
  // threads during static destruction.
  static FailpointRegistry* registry = new FailpointRegistry;
  return *registry;
}

void FailpointRegistry::RegisterSite(const char* site) {
  std::lock_guard<std::mutex> lock(mu_);
  if (std::find(sites_.begin(), sites_.end(), site) == sites_.end()) {
    sites_.emplace_back(site);
  }
}

void FailpointRegistry::Arm(const std::string& site, FailpointSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = armed_.insert_or_assign(site, Armed{std::move(spec)});
  (void)it;
  if (inserted) {
    internal::g_armed_failpoints.fetch_add(1, std::memory_order_relaxed);
  }
}

void FailpointRegistry::Disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  if (armed_.erase(site) > 0) {
    internal::g_armed_failpoints.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FailpointRegistry::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  internal::g_armed_failpoints.fetch_sub(static_cast<int>(armed_.size()),
                                         std::memory_order_relaxed);
  armed_.clear();
}

std::vector<std::string> FailpointRegistry::Sites() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out = sites_;
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t FailpointRegistry::HitCount(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = armed_.find(site);
  return it == armed_.end() ? 0 : it->second.hits;
}

Status FailpointRegistry::ArmFromSpec(const std::string& spec_string) {
  for (const std::string& raw : Split(spec_string, ',')) {
    std::string entry = Trim(raw);
    if (entry.empty()) continue;
    size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("failpoint spec entry '" + entry +
                                     "' is not site=action");
    }
    std::string site = Trim(entry.substr(0, eq));
    std::string action = Trim(entry.substr(eq + 1));
    std::string arg;
    size_t colon = action.find(':');
    if (colon != std::string::npos) {
      arg = action.substr(colon + 1);
      action = action.substr(0, colon);
    }
    if (action == "error") {
      Arm(site, FailpointSpec::Error(StatusCode::kInternal));
    } else if (action == "io_error") {
      Arm(site, FailpointSpec::Error(StatusCode::kIOError));
    } else if (action == "bad_alloc") {
      Arm(site, FailpointSpec::BadAlloc());
    } else if (action == "sleep") {
      auto ms = ParseNumber(arg, 1, INT_MAX);
      if (!ms.ok()) {
        return Status::InvalidArgument("failpoint sleep needs a positive "
                                       "whole number of milliseconds: " +
                                       ms.status().message());
      }
      Arm(site, FailpointSpec::Sleep(*ms));
    } else if (action == "abort") {
      Arm(site, FailpointSpec::Abort());
    } else {
      return Status::InvalidArgument("unknown failpoint action '" + action +
                                     "'");
    }
  }
  return Status::OK();
}

Status FailpointRegistry::Evaluate(const char* site) {
  FailpointSpec spec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = armed_.find(site);
    if (it == armed_.end()) return Status::OK();
    Armed& armed = it->second;
    ++armed.hits;
    if (armed.hits <= static_cast<uint64_t>(armed.spec.skip)) {
      return Status::OK();
    }
    if (armed.spec.max_fires >= 0 &&
        armed.fires >= static_cast<uint64_t>(armed.spec.max_fires)) {
      return Status::OK();
    }
    ++armed.fires;
    spec = armed.spec;  // act outside the lock (sleep/abort may be slow)
  }
  switch (spec.action) {
    case FailpointSpec::Action::kError: {
      std::string message = spec.message.empty()
                                ? "failpoint " + std::string(site) + " armed"
                                : spec.message;
      return Status(spec.code, std::move(message));
    }
    case FailpointSpec::Action::kBadAlloc:
      throw std::bad_alloc();
    case FailpointSpec::Action::kSleep:
      std::this_thread::sleep_for(std::chrono::milliseconds(spec.sleep_ms));
      return Status::OK();
    case FailpointSpec::Action::kAbort:
      std::abort();
  }
  return Status::OK();
}

}  // namespace fault
}  // namespace autoem
