#include "eda/verify/program_io.hpp"

#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "obs/record.hpp"

namespace cim::eda::verify {
namespace {

using obs::record::Reader;

constexpr std::size_t kNone = static_cast<std::size_t>(-1);
constexpr std::string_view kMagic = "cim-prog-v1";

void dump_node(std::ostream& os, std::size_t node) {
  if (node == kNone)
    os << " @-";
  else
    os << " @" << node;
}

void dump_operand(std::ostream& os, const RevampOperand& op) {
  if (op.complemented) os << '!';
  switch (op.src) {
    case RevampOperand::Src::kConst0: os << "c0"; break;
    case RevampOperand::Src::kConst1: os << "c1"; break;
    case RevampOperand::Src::kInput: os << 'i' << op.input_index; break;
    case RevampOperand::Src::kDmr:
      os << 'd' << op.dmr_row << '.' << op.dmr_col;
      break;
  }
}

/// A decimal size inside a token: a cell, operand index or node id.
std::size_t size_in(const Reader& r, std::string_view digits,
                    const char* what) {
  const auto v = obs::record::u64(digits);
  if (!v) r.fail(std::string("bad ") + what + " '" + std::string(digits) + "'");
  return *v;
}

/// A node annotation token: `@N`, or `@-` for "no node".
std::size_t node_in(const Reader& r, std::string_view tok) {
  if (tok.size() < 2 || tok[0] != '@')
    r.fail("bad node annotation '" + std::string(tok) + "'");
  return tok == "@-" ? kNone : size_in(r, tok.substr(1), "node annotation");
}

RevampOperand operand_in(const Reader& r, std::string_view tok) {
  RevampOperand op;
  std::string_view body = tok;
  if (!body.empty() && body[0] == '!') {
    op.complemented = true;
    body.remove_prefix(1);
  }
  if (body == "c0") {
    op.src = RevampOperand::Src::kConst0;
  } else if (body == "c1") {
    op.src = RevampOperand::Src::kConst1;
  } else if (body.size() >= 2 && body[0] == 'i') {
    op.src = RevampOperand::Src::kInput;
    op.input_index = size_in(r, body.substr(1), "operand input");
  } else if (const auto dot = body.find('.');
             body.size() >= 4 && body[0] == 'd' && dot != body.npos) {
    op.src = RevampOperand::Src::kDmr;
    op.dmr_row = size_in(r, body.substr(1, dot - 1), "operand row");
    op.dmr_col = size_in(r, body.substr(dot + 1), "operand column");
  } else {
    r.fail("bad operand '" + std::string(tok) + "'");
  }
  return op;
}

void read_imply(Reader& r, std::string_view kw, ImplyProgram& p) {
  if (kw == "cells") {
    p.num_cells = r.u64("cells");
  } else if (kw == "zero") {
    p.zero_cell = r.u64("zero");
  } else if (kw == "false" || kw == "imply") {
    ImplyInstr ins;
    ins.kind = kw == "false" ? ImplyInstr::Kind::kFalse
                             : ImplyInstr::Kind::kImply;
    const std::size_t operands = kw == "false" ? 1 : 2;
    if (r.tokens_left() < operands) r.fail("missing operands");
    ins.dest = r.u64("dest cell");
    if (operands == 2) ins.src = r.u64("src cell");
    if (!r.at_end()) ins.def_node = node_in(r, r.token("node annotation"));
    p.instrs.push_back(ins);
  } else if (kw == "output") {
    p.output_cells.push_back(r.u64("output cell"));
  } else {
    r.fail("unknown directive '" + std::string(kw) + "'");
  }
}

void read_magic(Reader& r, std::string_view kw, MagicProgram& p) {
  if (kw == "cells") {
    p.num_cells = r.u64("cells");
  } else if (kw == "set" || kw == "nor") {
    MagicInstr ins;
    ins.kind = kw == "set" ? MagicInstr::Kind::kSet : MagicInstr::Kind::kNor;
    ins.out_cell = r.u64("out cell");
    while (!r.at_end()) {
      const std::string_view tok = r.token("input cell");
      if (tok[0] == '@') {
        ins.node = node_in(r, tok);
        break;
      }
      ins.in_cells.push_back(size_in(r, tok, "input cell"));
    }
    if (ins.kind == MagicInstr::Kind::kNor && ins.in_cells.empty())
      r.fail("nor without inputs");
    p.instrs.push_back(std::move(ins));
  } else if (kw == "output") {
    const std::string_view tok = r.token("output cell");
    const bool is_const = tok == "const";
    p.output_cells.push_back(is_const ? 0 : size_in(r, tok, "output cell"));
    p.output_is_const.push_back(is_const);
    p.const_values.push_back(is_const && r.u64("const value", 1) == 1);
  } else {
    r.fail("unknown directive '" + std::string(kw) + "'");
  }
}

void read_revamp(Reader& r, std::string_view kw, RevampProgram& p) {
  if (kw == "wordlines") {
    p.wordlines = r.u64("wordlines", kMaxArrayLines);
  } else if (kw == "bitlines") {
    // Every apply sizes its columns by the bitlines in force, so a later
    // change would leave columns the dump could not re-parse.
    if (!p.instrs.empty()) r.fail("'bitlines' after the first instruction");
    p.bitlines = r.u64("bitlines", kMaxArrayLines);
  } else if (kw == "read") {
    RevampInstruction ins;
    ins.kind = RevampInstruction::Kind::kRead;
    ins.wordline = r.u64("wordline");
    p.instrs.push_back(std::move(ins));
  } else if (kw == "apply") {
    RevampInstruction ins;
    ins.kind = RevampInstruction::Kind::kApply;
    ins.wordline = r.u64("wordline");
    ins.wl = operand_in(r, r.token("wordline operand"));
    ins.columns.assign(p.bitlines, std::nullopt);
    while (!r.at_end()) {
      const std::string_view tok = r.token("column operand");
      const auto eq = tok.find('=');
      if (eq == tok.npos)
        r.fail("expected <col>=<operand>, got '" + std::string(tok) + "'");
      const std::size_t col = size_in(r, tok.substr(0, eq), "column");
      if (col >= p.bitlines)
        r.fail("column " + std::to_string(col) + " is not below bitlines " +
               std::to_string(p.bitlines));
      ins.columns[col] = operand_in(r, tok.substr(eq + 1));
    }
    p.instrs.push_back(std::move(ins));
  } else if (kw == "output") {
    p.outputs.push_back(operand_in(r, r.token("output operand")));
  } else {
    r.fail("unknown directive '" + std::string(kw) + "'");
  }
}

}  // namespace

void dump_program(std::ostream& os, const ImplyProgram& prog) {
  os << kMagic << " imply\n";
  os << "inputs " << prog.num_inputs << "\n";
  os << "cells " << prog.num_cells << "\n";
  os << "zero " << prog.zero_cell << "\n";
  for (const auto& ins : prog.instrs) {
    if (ins.kind == ImplyInstr::Kind::kFalse)
      os << "false " << ins.dest;
    else
      os << "imply " << ins.dest << ' ' << ins.src;
    dump_node(os, ins.def_node);
    os << "\n";
  }
  for (const auto c : prog.output_cells) os << "output " << c << "\n";
}

void dump_program(std::ostream& os, const MagicProgram& prog) {
  os << kMagic << " magic\n";
  os << "inputs " << prog.num_inputs << "\n";
  os << "cells " << prog.num_cells << "\n";
  for (const auto& ins : prog.instrs) {
    if (ins.kind == MagicInstr::Kind::kSet) {
      os << "set " << ins.out_cell;
    } else {
      os << "nor " << ins.out_cell;
      for (const auto c : ins.in_cells) os << ' ' << c;
    }
    dump_node(os, ins.node);
    os << "\n";
  }
  for (std::size_t k = 0; k < prog.output_cells.size(); ++k) {
    if (k < prog.output_is_const.size() && prog.output_is_const[k])
      os << "output const "
         << (k < prog.const_values.size() && prog.const_values[k] ? 1 : 0)
         << "\n";
    else
      os << "output " << prog.output_cells[k] << "\n";
  }
}

void dump_program(std::ostream& os, const RevampProgram& prog) {
  os << kMagic << " revamp\n";
  os << "inputs " << prog.num_inputs << "\n";
  os << "wordlines " << prog.wordlines << "\n";
  os << "bitlines " << prog.bitlines << "\n";
  for (const auto& ins : prog.instrs) {
    if (ins.kind == RevampInstruction::Kind::kRead) {
      os << "read " << ins.wordline << "\n";
      continue;
    }
    os << "apply " << ins.wordline << ' ';
    dump_operand(os, ins.wl);
    for (std::size_t c = 0; c < ins.columns.size(); ++c) {
      if (!ins.columns[c]) continue;
      os << ' ' << c << '=';
      dump_operand(os, *ins.columns[c]);
    }
    os << "\n";
  }
  for (const auto& o : prog.outputs) {
    os << "output ";
    dump_operand(os, o);
    os << "\n";
  }
}

std::optional<ParsedProgram> parse_program(std::istream& is,
                                           std::string* error) {
  ParsedProgram out;
  Reader r(is, kMagic);
  try {
    r.header(kMagic);
    const std::string_view family = r.token("family");
    if (family == "imply")
      out.family = ProgramFamily::kImply;
    else if (family == "magic")
      out.family = ProgramFamily::kMagic;
    else if (family == "revamp")
      out.family = ProgramFamily::kRevamp;
    else
      r.fail("unknown family '" + std::string(family) + "'");
    r.end();
    while (r.next()) {
      const std::string_view kw = r.token("directive");
      if (kw == "inputs") {
        out.imply.num_inputs = out.magic.num_inputs = out.revamp.num_inputs =
            r.u64("inputs");
      } else if (out.family == ProgramFamily::kImply) {
        read_imply(r, kw, out.imply);
      } else if (out.family == ProgramFamily::kMagic) {
        read_magic(r, kw, out.magic);
      } else {
        read_revamp(r, kw, out.revamp);
      }
      r.end();
    }
  } catch (const obs::record::ParseError& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
  return out;
}

}  // namespace cim::eda::verify
