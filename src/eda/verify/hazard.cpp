#include "eda/verify/hazard.hpp"

#include <algorithm>
#include <sstream>

namespace cim::eda::verify {
namespace {

/// Windows overlap when both have positive measure in common; a
/// non-positive duration is an always-active reservation.
bool windows_overlap(const ScheduledProgram& a, const ScheduledProgram& b) {
  const bool a_open = a.duration <= 0.0;
  const bool b_open = b.duration <= 0.0;
  if (a_open && b_open) return true;
  if (a_open) return true;  // open interval overlaps any positive window
  if (b_open) return true;
  return a.start < b.start + b.duration && b.start < a.start + a.duration;
}

}  // namespace

VerifyReport analyze_hazards(const TilePool& pool,
                             const std::vector<ScheduledProgram>& scheduled) {
  VerifyReport rep;
  auto diag = [&rep](Severity sev, Rule rule, std::size_t cell,
                     std::string msg) {
    rep.diagnostics.push_back({sev, rule, kNoInstr, cell, std::move(msg)});
  };

  // --- placement validity ----------------------------------------------------
  for (const auto& p : scheduled) {
    if (p.tile >= pool.tiles.size()) {
      std::ostringstream os;
      os << "program '" << p.name << "' targets tile " << p.tile
         << " but the pool has " << pool.tiles.size();
      diag(Severity::kError, Rule::kOobCell, kNoCell, os.str());
      continue;
    }
    const auto& t = pool.tiles[p.tile];
    if (p.row0 + p.access.rows > t.rows || p.col0 + p.access.cols > t.cols) {
      std::ostringstream os;
      os << "program '" << p.name << "' at r" << p.row0 << ",c" << p.col0
         << " (" << p.access.rows << "x" << p.access.cols
         << ") exceeds tile " << p.tile << " (" << t.rows << "x" << t.cols
         << ")";
      diag(Severity::kError, Rule::kOobCell, kNoCell, os.str());
    }
    rep.cells_tracked += p.access.rows * p.access.cols;
    rep.max_writes_per_cell =
        std::max(rep.max_writes_per_cell, p.access.max_write_bound());
  }

  // --- pairwise conflicts ----------------------------------------------------
  // A tile-frame cell is (row, col) with col < tile.cols; the flat id
  // row * tile.cols + col is what the diagnostics carry.
  for (std::size_t i = 0; i < scheduled.size(); ++i) {
    for (std::size_t j = i + 1; j < scheduled.size(); ++j) {
      const auto* a = &scheduled[i];
      const auto* b = &scheduled[j];
      if (a->tile != b->tile || a->tile >= pool.tiles.size()) continue;
      if (!windows_overlap(*a, *b)) continue;
      // Order by start so RAW/WAR classification is deterministic: `a` is
      // the earlier program.
      if (b->start < a->start) std::swap(a, b);
      const auto& tile = pool.tiles[a->tile];

      // Cell-set intersections over the overlapping footprint rectangle.
      std::size_t raw = 0, war = 0, waw = 0;
      std::size_t first_raw = kNoCell, first_war = kNoCell,
                  first_waw = kNoCell;
      const std::size_t r_lo = std::max(a->row0, b->row0);
      const std::size_t r_hi = std::min(a->row0 + a->access.rows,
                                        b->row0 + b->access.rows);
      const std::size_t c_lo = std::max(a->col0, b->col0);
      const std::size_t c_hi = std::min(a->col0 + a->access.cols,
                                        b->col0 + b->access.cols);
      for (std::size_t r = r_lo; r < r_hi; ++r) {
        for (std::size_t c = c_lo; c < c_hi; ++c) {
          const auto& aa = a->access;
          const auto& ba = b->access;
          const std::size_t ia = aa.flat(r - a->row0, c - a->col0);
          const std::size_t ib = ba.flat(r - b->row0, c - b->col0);
          const std::size_t abs_cell = r * tile.cols + c;
          if (aa.written[ia] && ba.written[ib]) {
            if (waw++ == 0) first_waw = abs_cell;
          }
          if (aa.written[ia] && ba.read[ib]) {
            if (raw++ == 0) first_raw = abs_cell;
          }
          if (aa.read[ia] && ba.written[ib]) {
            if (war++ == 0) first_war = abs_cell;
          }
        }
      }
      auto pair_msg = [&](const char* what, std::size_t n) {
        std::ostringstream os;
        os << "programs '" << a->name << "' and '" << b->name
           << "' overlap in time on tile " << a->tile << ": " << n << " "
           << what;
        return os.str();
      };
      if (waw > 0)
        diag(Severity::kError, Rule::kWawHazard, first_waw,
             pair_msg("cell(s) written by both", waw));
      if (raw > 0)
        diag(Severity::kError, Rule::kRawHazard, first_raw,
             pair_msg("cell(s) read by the later program while the earlier "
                      "one writes them",
                      raw));
      if (war > 0)
        diag(Severity::kError, Rule::kWarHazard, first_war,
             pair_msg("cell(s) written by the later program while the "
                      "earlier one reads them",
                      war));

      // Shared-ADC contention: both programs sense columns muxed onto the
      // same physical channel during the overlap.
      if (tile.adc_channels > 0) {
        std::vector<char> chan_a(tile.adc_channels, 0);
        for (std::size_t c = 0; c < a->access.sensed_cols.size(); ++c)
          if (a->access.sensed_cols[c] != 0)
            chan_a[(a->col0 + c) % tile.adc_channels] = 1;
        std::size_t shared = 0, first_chan = kNoCell;
        for (std::size_t c = 0; c < b->access.sensed_cols.size(); ++c) {
          if (b->access.sensed_cols[c] == 0) continue;
          const std::size_t ch = (b->col0 + c) % tile.adc_channels;
          if (chan_a[ch]) {
            if (shared++ == 0) first_chan = ch;
            chan_a[ch] = 0;  // count each channel once
          }
        }
        if (shared > 0) {
          std::ostringstream os;
          os << "programs '" << a->name << "' and '" << b->name
             << "' contend for " << shared << " shared ADC channel(s) on "
             << "tile " << a->tile << " (" << tile.adc_channels
             << " physical ADCs, column-muxed)";
          diag(Severity::kError, Rule::kAdcConflict, first_chan, os.str());
        }
      }

      // Shared wordline drivers: a throughput (serialization) warning.
      std::size_t shared = 0, first_row = kNoCell;
      for (std::size_t ra = 0; ra < a->access.driven_rows.size(); ++ra) {
        if (!a->access.driven_rows[ra]) continue;
        const std::size_t abs_row = a->row0 + ra;
        if (abs_row < b->row0 ||
            abs_row >= b->row0 + b->access.driven_rows.size())
          continue;
        if (b->access.driven_rows[abs_row - b->row0]) {
          if (shared++ == 0) first_row = abs_row;
        }
      }
      if (shared > 0) {
        std::ostringstream os;
        os << "programs '" << a->name << "' and '" << b->name << "' drive "
           << shared << " shared wordline(s) on tile " << a->tile
           << " — the row decoder serializes them";
        diag(Severity::kWarning, Rule::kRowDriverConflict, first_row, os.str());
      }
    }
  }
  return rep;
}

}  // namespace cim::eda::verify
