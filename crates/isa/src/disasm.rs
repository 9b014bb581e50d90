//! Disassembly of instructions and program images into OpenRISC assembly
//! syntax, mainly used for traces, debugging and the paper-style reports.

use crate::table::Operand;
use crate::{Insn, Program, Reg};

/// Formats a single instruction using OpenRISC assembly syntax.
///
/// Branch and jump targets are rendered as relative word offsets
/// (e.g. `l.bf -3`); use [`disassemble_program`] to render resolved byte
/// addresses instead.
///
/// # Example
///
/// ```
/// use idca_isa::{disasm, Insn, Reg};
///
/// let text = disasm::format_insn(&Insn::add(Reg::r(3), Reg::r(4), Reg::r(5)));
/// assert_eq!(text, "l.add r3, r4, r5");
/// ```
#[must_use]
pub fn format_insn(insn: &Insn) -> String {
    let row = insn.opcode().row();
    let reg = |reg: Option<Reg>| reg.unwrap_or(Reg::R0);
    let imm = insn.imm().unwrap_or(0);
    let operands: Vec<String> = row
        .facts
        .format
        .syntax()
        .iter()
        .map(|operand| match operand {
            Operand::Rd => reg(insn.rd()).to_string(),
            Operand::Ra => reg(insn.ra()).to_string(),
            Operand::Rb => reg(insn.rb()).to_string(),
            Operand::Imm | Operand::Target => imm.to_string(),
            Operand::HexImm => format!("{:#x}", imm as u32),
            Operand::Mem => format!("{imm}({})", reg(insn.ra())),
        })
        .collect();
    if operands.is_empty() {
        row.mnemonic.to_string()
    } else {
        format!("{} {}", row.mnemonic, operands.join(", "))
    }
}

/// A single line of a disassembled program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisasmLine {
    /// Byte address of the instruction.
    pub address: u32,
    /// Raw 32-bit encoding.
    pub word: u32,
    /// Formatted assembly text.
    pub text: String,
}

/// Disassembles a whole [`Program`], resolving branch/jump targets to byte
/// addresses where possible.
#[must_use]
pub fn disassemble_program(program: &Program) -> Vec<DisasmLine> {
    program
        .insns()
        .iter()
        .enumerate()
        .map(|(i, insn)| {
            let address = program.base_address() + (i as u32) * crate::INSN_BYTES;
            let mut text = format_insn(insn);
            if insn.opcode().is_control_flow() {
                if let Some(offset) = insn.imm() {
                    let target = address.wrapping_add((offset as u32).wrapping_mul(4));
                    text = format!("{text}    # -> {target:#06x}");
                }
            }
            DisasmLine {
                address,
                word: insn.encode(),
                text,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProgramBuilder, Reg};

    #[test]
    fn formats_all_operand_shapes() {
        assert_eq!(format_insn(&Insn::nop(3)), "l.nop 3");
        assert_eq!(
            format_insn(&Insn::movhi(Reg::r(4), 0x1000).unwrap()),
            "l.movhi r4, 0x1000"
        );
        assert_eq!(format_insn(&Insn::j(-2).unwrap()), "l.j -2");
        assert_eq!(format_insn(&Insn::jr(Reg::r(9))), "l.jr r9");
        assert_eq!(
            format_insn(&Insn::sw(4, Reg::r(1), Reg::r(3)).unwrap()),
            "l.sw 4(r1), r3"
        );
        assert_eq!(
            format_insn(&Insn::sfi(crate::SetFlagCond::Ne, Reg::r(3), 0).unwrap()),
            "l.sfnei r3, 0"
        );
        assert_eq!(
            format_insn(&Insn::slli(Reg::r(2), Reg::r(3), 4).unwrap()),
            "l.slli r2, r3, 4"
        );
        assert_eq!(
            format_insn(&Insn::extbs(Reg::r(2), Reg::r(3))),
            "l.extbs r2, r3"
        );
    }

    #[test]
    fn program_disassembly_resolves_targets() {
        let mut builder = ProgramBuilder::new();
        builder.push(Insn::addi(Reg::r(3), Reg::r(0), 1).unwrap());
        builder.push(Insn::bf(-1).unwrap());
        builder.push(Insn::nop(0));
        let program = builder.build();
        let lines = disassemble_program(&program);
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].address, 0);
        assert_eq!(lines[1].address, 4);
        assert!(lines[1].text.contains("-> 0x0000"));
    }
}
