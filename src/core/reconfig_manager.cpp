#include "core/reconfig_manager.hpp"

#include <algorithm>
#include <utility>

#include "fpga/defrag.hpp"

namespace recosim::core {

ReconfigManager::ReconfigManager(sim::Kernel& kernel,
                                 const fpga::Device& device,
                                 double system_clock_mhz,
                                 PlacementStrategy strategy, int slot_count)
    : kernel_(kernel),
      floorplan_(device),
      bits_(device),
      icap_(kernel, device, system_clock_mhz),
      strategy_(strategy) {
  if (strategy == PlacementStrategy::kSlots) {
    slots_ = std::make_unique<fpga::SlotPlacer>(floorplan_, slot_count);
  } else {
    rects_ = std::make_unique<fpga::RectPlacer>(floorplan_, /*clearance=*/1);
  }
}

std::optional<fpga::Rect> ReconfigManager::place(
    fpga::ModuleId id, const fpga::HardwareModule& m) {
  if (strategy_ == PlacementStrategy::kSlots) {
    auto slot = slots_->place(id, m);
    if (!slot) return std::nullopt;
    return slots_->slot_region(*slot);
  }
  return rects_->place(id, m);
}

bool ReconfigManager::can_place(const fpga::HardwareModule& m) const {
  if (strategy_ == PlacementStrategy::kSlots)
    return slots_->fits(m) && slots_->free_slots() > 0;
  return rects_->find(m.width_clbs, m.height_clbs).has_value();
}

std::optional<fpga::HardwareModule> ReconfigManager::resident_module(
    fpga::ModuleId id) const {
  auto it = resident_.find(id);
  if (it == resident_.end()) return std::nullopt;
  return it->second;
}

bool ReconfigManager::cancel_load(fpga::ModuleId id) {
  auto it = loading_.find(id);
  if (it == loading_.end()) return false;
  loading_.erase(it);
  free_placement(id);
  stats_.counter("loads_cancelled").add();
  return true;
}

bool ReconfigManager::restore_placement(fpga::ModuleId id,
                                        const fpga::HardwareModule& m,
                                        const fpga::Rect& region) {
  if (floorplan_.region_of(id)) return false;
  if (strategy_ == PlacementStrategy::kSlots) {
    for (int s = 0; s < slots_->slot_count(); ++s) {
      const fpga::Rect& r = slots_->slot_region(s);
      if (r.x != region.x || r.y != region.y || r.w != region.w ||
          r.h != region.h)
        continue;
      if (!slots_->place_in_slot(id, m, s)) return false;
      resident_[id] = m;
      return true;
    }
    return false;
  }
  if (!floorplan_.place(id, region)) return false;
  resident_[id] = m;
  return true;
}

bool ReconfigManager::release_placement(fpga::ModuleId id) {
  if (!floorplan_.region_of(id)) return false;
  free_placement(id);
  return true;
}

bool ReconfigManager::load(CommArchitecture& arch, fpga::ModuleId id,
                           const fpga::HardwareModule& m,
                           ReadyCallback on_ready) {
  if (id == fpga::kInvalidModule || arch.is_attached(id) ||
      loading_.count(id))
    return false;
  auto region = place(id, m);
  if (!region) return false;
  loading_.emplace(id, LoadJob{m, *region, 0, std::move(on_ready), &arch,
                              std::nullopt});
  icap_.request(id, *region, [this](fpga::ModuleId done_id, bool ok) {
    on_icap_done(done_id, ok);
  });
  return true;
}

void ReconfigManager::set_icap_retry_policy(unsigned limit,
                                            sim::Cycle base_backoff) {
  icap_retry_limit_ = limit;
  icap_retry_backoff_ = std::max<sim::Cycle>(1, base_backoff);
}

void ReconfigManager::free_placement(fpga::ModuleId id) {
  if (strategy_ == PlacementStrategy::kSlots) {
    slots_->remove(id);
  } else {
    rects_->remove(id);
  }
}

void ReconfigManager::on_icap_done(fpga::ModuleId id, bool ok) {
  auto it = loading_.find(id);
  if (it == loading_.end()) return;  // cancelled meanwhile
  LoadJob& job = it->second;
  if (!ok) {
    stats_.counter("icap_aborts").add();
    if (job.attempts < icap_retry_limit_) {
      ++job.attempts;
      stats_.counter("icap_retries").add();
      const sim::Cycle backoff =
          std::min(icap_retry_backoff_ << job.attempts,
                   icap_retry_backoff_ * 8);
      const fpga::Rect region = job.region;
      // The kernel's event queue outlives this manager, so the retry must
      // not run against a destroyed `this` — the anchor turns it into a
      // no-op once the manager is gone. (The icap_ callbacks need no
      // anchor: the Icap is a member and dies together with `this`.)
      kernel_.schedule_in(backoff, anchor_.wrap([this, id, region] {
        if (!loading_.count(id)) return;  // unloaded during the backoff
        icap_.request(id, region, [this](fpga::ModuleId done_id, bool k) {
          on_icap_done(done_id, k);
        });
      }));
      return;
    }
    // Retry budget exhausted: abandon the load, free the fabric, restore
    // a swapped-out module and surface the permanent failure.
    const ReadyCallback cb = std::move(job.on_ready);
    const std::optional<SwapRestore> restore = std::move(job.restore);
    CommArchitecture* fail_arch = job.arch;
    loading_.erase(it);
    free_placement(id);
    stats_.counter("load_failures").add();
    if (restore) restore_swapped_out(*restore, *fail_arch);
    if (cb) cb(id, false);
    return;
  }
  const fpga::HardwareModule mod = job.module;
  CommArchitecture* arch = job.arch;
  const ReadyCallback cb = std::move(job.on_ready);
  const std::optional<SwapRestore> restore = std::move(job.restore);
  loading_.erase(it);
  const bool attached = arch->attach(id, mod);
  if (attached) {
    resident_[id] = mod;
    stats_.counter("loads_completed").add();
  } else {
    free_placement(id);
    stats_.counter("load_failures").add();
    if (restore) restore_swapped_out(*restore, *arch);
  }
  if (cb) cb(id, attached);
}

void ReconfigManager::restore_swapped_out(const SwapRestore& restore,
                                          CommArchitecture& arch) {
  // Undo the swap's destructive half: the old module went away before the
  // replacement was verified, so put it back where it was. The known-good
  // configuration is modelled as retained (no second ICAP write charged).
  if (restore_placement(restore.old_id, restore.module, restore.region)) {
    if (arch.attach(restore.old_id, restore.module)) {
      stats_.counter("swap_restores").add();
      return;
    }
    // The fabric degraded while the swap streamed (e.g. a router under
    // the region died): the module cannot come back. Give its region up
    // too — a placement without an attachment is a half-configured state
    // nothing would ever clean up.
    free_placement(restore.old_id);
    resident_.erase(restore.old_id);
  }
  stats_.counter("swap_restore_failures").add();
}

bool ReconfigManager::load_with_compaction(CommArchitecture& arch,
                                           fpga::ModuleId id,
                                           const fpga::HardwareModule& m,
                                           ReadyCallback on_ready) {
  if (load(arch, id, m, on_ready)) return true;
  if (strategy_ != PlacementStrategy::kRectangles) return false;
  fpga::Defragmenter defrag(floorplan_, floorplan_.device());
  const auto plan =
      defrag.plan_for(m.width_clbs, m.height_clbs, /*clearance=*/1);
  if (!plan.target_fits || plan.moves.empty()) return false;
  // Execute the relocations: each moved module is detached, rewritten at
  // its new position through the ICAP (the queue serializes the moves in
  // plan order), and re-attached on completion.
  for (const auto& move : plan.moves) {
    if (!floorplan_.remove(move.id)) return false;
    if (!floorplan_.place(move.id, move.to)) {
      floorplan_.place(move.id, move.from);
      return false;
    }
    arch.detach(move.id);
    ++compaction_moves_;
    icap_.request(move.id, move.to,
                  [this, &arch](fpga::ModuleId moved, bool ok) {
                    if (!ok) {
                      // The relocated bitstream never landed: the module
                      // stays detached (its region is still owned, so the
                      // fabric stays consistent for later plans).
                      stats_.counter("relocation_failures").add();
                      return;
                    }
                    fpga::HardwareModule mod;
                    if (auto resident = resident_module(moved)) {
                      mod = *resident;  // re-attach the real descriptor
                    } else {
                      mod.name = "relocated";
                    }
                    arch.attach(moved, mod);
                  });
  }
  return load(arch, id, m, std::move(on_ready));
}

bool ReconfigManager::unload(CommArchitecture& arch, fpga::ModuleId id) {
  loading_.erase(id);  // cancel a pending load of the same id
  const bool detached = arch.detach(id);
  bool freed;
  if (strategy_ == PlacementStrategy::kSlots) {
    freed = slots_->remove(id);
  } else {
    freed = rects_->remove(id);
  }
  resident_.erase(id);
  return detached || freed;
}

bool ReconfigManager::swap(CommArchitecture& arch, fpga::ModuleId old_id,
                           fpga::ModuleId new_id,
                           const fpga::HardwareModule& m,
                           ReadyCallback on_ready) {
  // Capture what the swap is about to destroy *before* unloading, so a
  // permanently failing load can restore it (the old module used to be
  // detached fire-and-forget and was simply gone on failure).
  std::optional<SwapRestore> restore;
  const auto old_region = floorplan_.region_of(old_id);
  const auto old_module = resident_module(old_id);
  if (old_region && old_module && arch.is_attached(old_id))
    restore = SwapRestore{old_id, *old_module, *old_region};
  if (!unload(arch, old_id)) return false;
  if (!load(arch, new_id, m, std::move(on_ready))) {
    // No placement for the replacement: put the old module straight back.
    if (restore) restore_swapped_out(*restore, arch);
    return false;
  }
  if (restore) loading_.at(new_id).restore = std::move(restore);
  return true;
}

}  // namespace recosim::core
