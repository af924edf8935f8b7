#include "fault/defects.hpp"

#include <stdexcept>

namespace cim::fault {

std::string_view defect_name(DefectKind kind) {
  switch (kind) {
    case DefectKind::kOxidePinhole: return "oxide-pinhole";
    case DefectKind::kOverForming: return "over-forming";
    case DefectKind::kFormingFailure: return "forming-failure";
    case DefectKind::kBrokenWordline: return "broken-wordline";
    case DefectKind::kBrokenBitline: return "broken-bitline";
    case DefectKind::kDecoderDefect: return "decoder-defect";
    case DefectKind::kCellBridge: return "cell-bridge";
    case DefectKind::kNarrowFilament: return "narrow-filament";
  }
  return "unknown";
}

std::vector<DefectKind> all_defect_kinds() {
  return {DefectKind::kOxidePinhole,  DefectKind::kOverForming,
          DefectKind::kFormingFailure, DefectKind::kBrokenWordline,
          DefectKind::kBrokenBitline, DefectKind::kDecoderDefect,
          DefectKind::kCellBridge,    DefectKind::kNarrowFilament};
}

std::vector<FaultDescriptor> map_defect_to_faults(const Defect& defect,
                                                  std::size_t rows,
                                                  std::size_t cols,
                                                  util::Rng& rng) {
  if (defect.row >= rows || defect.col >= cols)
    throw std::out_of_range("map_defect_to_faults: defect out of array");
  std::vector<FaultDescriptor> out;
  auto cell = [&](FaultKind kind, std::size_t r, std::size_t c,
                  double severity = 1.0) {
    FaultDescriptor fd;
    fd.kind = kind;
    fd.row = r;
    fd.col = c;
    fd.severity = severity;
    out.push_back(fd);
  };

  switch (defect.kind) {
    case DefectKind::kOxidePinhole:
      // A pinhole through the oxide shorts the MIM stack: permanent LRS.
      cell(FaultKind::kStuckAtOne, defect.row, defect.col);
      break;
    case DefectKind::kOverForming:
      cell(FaultKind::kOverForming, defect.row, defect.col);
      break;
    case DefectKind::kFormingFailure:
      // No filament ever forms: the cell never leaves HRS.
      cell(FaultKind::kStuckAtZero, defect.row, defect.col);
      break;
    case DefectKind::kBrokenWordline:
      // Cells beyond the break see a floating wordline; the paper maps this
      // to SA1 behaviour for the affected row segment.
      for (std::size_t c = defect.col; c < cols; ++c)
        cell(FaultKind::kStuckAtOne, defect.row, c);
      break;
    case DefectKind::kBrokenBitline:
      // Column segment cannot sink current: reads as HRS.
      for (std::size_t r = defect.row; r < rows; ++r)
        cell(FaultKind::kStuckAtZero, r, defect.col);
      break;
    case DefectKind::kDecoderDefect: {
      if (rows < 2)
        throw std::invalid_argument(
            "map_defect_to_faults: a decoder defect needs a second row");
      FaultDescriptor fd;
      fd.kind = FaultKind::kAddressDecoder;
      fd.row = defect.row;
      fd.col = 0;
      // Alias to a different row (wrap-around neighbour if needed).
      fd.aux_row = (defect.row + 1 + rng.uniform_int(rows - 1)) % rows;
      out.push_back(fd);
      break;
    }
    case DefectKind::kCellBridge: {
      if (cols < 2)
        throw std::invalid_argument(
            "map_defect_to_faults: a cell bridge needs a second column");
      FaultDescriptor fd;
      fd.kind = FaultKind::kCoupling;
      fd.row = defect.row;
      fd.col = defect.col;
      // Victim: horizontal neighbour (bridges form between adjacent cells).
      fd.aux_row = defect.row;
      fd.aux_col = (defect.col + 1 < cols) ? defect.col + 1 : defect.col - 1;
      out.push_back(fd);
      break;
    }
    case DefectKind::kNarrowFilament:
      cell(FaultKind::kWriteVariation, defect.row, defect.col,
           rng.uniform(3.0, 8.0));
      break;
  }
  return out;
}

FaultMap inject_defects(std::size_t rows, std::size_t cols, std::size_t n,
                        util::Rng& rng) {
  FaultMap map(rows, cols);
  const auto kinds = all_defect_kinds();
  for (std::size_t i = 0; i < n; ++i) {
    Defect d;
    d.kind = kinds[rng.uniform_int(kinds.size())];
    d.row = rng.uniform_int(rows);
    d.col = rng.uniform_int(cols);
    for (const auto& fd : map_defect_to_faults(d, rows, cols, rng)) map.add(fd);
  }
  return map;
}

}  // namespace cim::fault
