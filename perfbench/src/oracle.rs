//! The correctness oracle: a bit-parallel evaluator of gate-level
//! Verilog text that shares no code with the program's parsers,
//! simulator or verify ladder.
//!
//! It reads the flat structural subset the program writes (one
//! `CELL inst (.A(a), .B(b), .Y(y));` instance per statement, `assign`
//! constants, `input`/`output` port lists), derives each cell's function
//! from its name alone (`INV`, `BUF`, `AND`, `OR`, `NAND`, `NOR`, `XOR`,
//! `XNOR`, any arity suffix) and evaluates 64 input vectors per machine
//! word. Two designs are compared by position on seeded random vectors.

use std::collections::HashMap;

use crate::util::Rng;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Func {
    Buf,
    Inv,
    And,
    Or,
    Nand,
    Nor,
    Xor,
    Xnor,
}

impl Func {
    fn from_cell(cell: &str) -> Option<Func> {
        let base = cell.trim_end_matches(|c: char| c.is_ascii_digit());
        Some(match base.to_ascii_uppercase().as_str() {
            "BUF" => Func::Buf,
            "INV" => Func::Inv,
            "AND" => Func::And,
            "OR" => Func::Or,
            "NAND" => Func::Nand,
            "NOR" => Func::Nor,
            "XOR" => Func::Xor,
            "XNOR" => Func::Xnor,
            _ => return None,
        })
    }

    fn eval(self, ins: &[u64]) -> u64 {
        let and = || ins.iter().fold(!0u64, |a, &w| a & w);
        let or = || ins.iter().fold(0u64, |a, &w| a | w);
        let xor = || ins.iter().fold(0u64, |a, &w| a ^ w);
        match self {
            Func::Buf => ins[0],
            Func::Inv => !ins[0],
            Func::And => and(),
            Func::Or => or(),
            Func::Nand => !and(),
            Func::Nor => !or(),
            Func::Xor => xor(),
            Func::Xnor => !xor(),
        }
    }
}

struct Gate {
    func: Func,
    inputs: Vec<usize>,
    output: usize,
}

/// A design read from Verilog text, ready to evaluate.
pub struct Design {
    inputs: Vec<usize>,
    outputs: Vec<usize>,
    consts: Vec<(usize, bool)>,
    /// Gates in topological order.
    gates: Vec<Gate>,
    nets: usize,
}

fn strip_comments(src: &str) -> String {
    src.lines()
        .map(|l| l.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n")
}

impl Design {
    pub fn parse(src: &str) -> Result<Design, String> {
        let src = strip_comments(src);
        let mut ids: HashMap<String, usize> = HashMap::new();
        let mut id = |name: &str| -> usize {
            let n = ids.len();
            *ids.entry(name.to_owned()).or_insert(n)
        };
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        let mut consts = Vec::new();
        let mut gates = Vec::new();
        for stmt in src.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() || stmt.starts_with("module") || stmt == "endmodule" {
                continue;
            }
            let (head, rest) = stmt.split_once(char::is_whitespace).unwrap_or((stmt, ""));
            let names = |rest: &str| -> Vec<String> {
                rest.split(',')
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
                    .collect()
            };
            match head {
                "input" => inputs.extend(names(rest).iter().map(|n| id(n))),
                "output" => outputs.extend(names(rest).iter().map(|n| id(n))),
                "wire" => {}
                "assign" => {
                    let (lhs, rhs) = rest.split_once('=').ok_or("assign without '='")?;
                    let value = match rhs.trim() {
                        "1'b0" => false,
                        "1'b1" => true,
                        other => return Err(format!("unsupported assign {other:?}")),
                    };
                    consts.push((id(lhs.trim()), value));
                }
                "endmodule" => {}
                cell => {
                    let func = Func::from_cell(cell).ok_or(format!("unknown cell {cell:?}"))?;
                    let open = rest.find('(').ok_or("instance without pins")?;
                    let close = rest.rfind(')').ok_or("instance without ')'")?;
                    let mut pins: Vec<(char, usize)> = Vec::new();
                    for conn in rest[open + 1..close].split("),") {
                        let conn = conn.trim().trim_end_matches(')');
                        let conn = conn.strip_prefix('.').ok_or(format!("bad pin {conn:?}"))?;
                        let (pin, net) = conn.split_once('(').ok_or(format!("bad pin {conn:?}"))?;
                        let pin = pin.trim().chars().next().ok_or("empty pin name")?;
                        pins.push((pin, id(net.trim())));
                    }
                    let output = pins
                        .iter()
                        .find(|(p, _)| *p == 'Y')
                        .map(|&(_, n)| n)
                        .ok_or("instance without output pin")?;
                    let mut ins: Vec<(char, usize)> =
                        pins.into_iter().filter(|(p, _)| *p != 'Y').collect();
                    ins.sort_by_key(|&(p, _)| p);
                    gates.push(Gate {
                        func,
                        inputs: ins.into_iter().map(|(_, n)| n).collect(),
                        output,
                    });
                }
            }
        }
        let nets = ids.len();
        let gates = topo_sort(gates, nets)?;
        Ok(Design {
            inputs,
            outputs,
            consts,
            gates,
            nets,
        })
    }

    /// Output words for `words` x 64 vectors; `stimulus[i]` holds input i.
    fn eval(&self, stimulus: &[Vec<u64>], words: usize) -> Vec<Vec<u64>> {
        let mut val = vec![0u64; self.nets * words];
        for (i, &net) in self.inputs.iter().enumerate() {
            val[net * words..(net + 1) * words].copy_from_slice(&stimulus[i]);
        }
        for &(net, v) in &self.consts {
            val[net * words..(net + 1) * words].fill(if v { !0 } else { 0 });
        }
        let mut ins = Vec::with_capacity(4);
        for g in &self.gates {
            for w in 0..words {
                ins.clear();
                ins.extend(g.inputs.iter().map(|&n| val[n * words + w]));
                val[g.output * words + w] = g.func.eval(&ins);
            }
        }
        self.outputs
            .iter()
            .map(|&n| val[n * words..(n + 1) * words].to_vec())
            .collect()
    }
}

fn topo_sort(gates: Vec<Gate>, nets: usize) -> Result<Vec<Gate>, String> {
    let mut driver = vec![usize::MAX; nets];
    for (i, g) in gates.iter().enumerate() {
        if driver[g.output] != usize::MAX {
            return Err("net driven twice".into());
        }
        driver[g.output] = i;
    }
    // Iterative DFS post-order over gate drivers.
    let mut state = vec![0u8; gates.len()]; // 0 new, 1 on stack, 2 done
    let mut order = Vec::with_capacity(gates.len());
    for root in 0..gates.len() {
        if state[root] != 0 {
            continue;
        }
        let mut stack = vec![(root, 0usize)];
        state[root] = 1;
        while let Some(&mut (g, ref mut next)) = stack.last_mut() {
            if let Some(&net) = gates[g].inputs.get(*next) {
                *next += 1;
                let d = driver[net];
                if d != usize::MAX {
                    match state[d] {
                        0 => {
                            state[d] = 1;
                            stack.push((d, 0));
                        }
                        1 => return Err("combinational cycle".into()),
                        _ => {}
                    }
                }
            } else {
                state[g] = 2;
                order.push(g);
                stack.pop();
            }
        }
    }
    let mut slots: Vec<Option<Gate>> = gates.into_iter().map(Some).collect();
    Ok(order
        .into_iter()
        .map(|i| slots[i].take().expect("each gate ordered once"))
        .collect())
}

/// Compares two designs on `words` x 64 seeded random vectors; `Ok` when
/// every output agrees on every vector.
pub fn equivalent_on_vectors(
    golden: &Design,
    candidate: &Design,
    seed: u64,
    words: usize,
) -> Result<(), String> {
    if golden.inputs.len() != candidate.inputs.len()
        || golden.outputs.len() != candidate.outputs.len()
    {
        return Err("interfaces differ".into());
    }
    let mut rng = Rng::new(seed);
    let stimulus: Vec<Vec<u64>> = (0..golden.inputs.len())
        .map(|_| (0..words).map(|_| rng.next_u64()).collect())
        .collect();
    let a = golden.eval(&stimulus, words);
    let b = candidate.eval(&stimulus, words);
    match a.iter().zip(&b).position(|(x, y)| x != y) {
        None => Ok(()),
        Some(o) => Err(format!("output {o} differs")),
    }
}

/// Checks Verilog texts `candidate` against `golden` on seeded vectors.
pub fn check_texts(golden: &str, candidate: &str, seed: u64) -> Result<(), String> {
    let g = Design::parse(golden)?;
    let c = Design::parse(candidate)?;
    equivalent_on_vectors(&g, &c, seed, 8)
}

/// The cell of the same arity with the complemented function.
fn complement_cell(cell: &str) -> Option<String> {
    let digits = cell.trim_start_matches(|c: char| !c.is_ascii_digit());
    let base = &cell[..cell.len() - digits.len()];
    let flipped = match base {
        "INV" => "BUF",
        "BUF" => "INV",
        "AND" => "NAND",
        "NAND" => "AND",
        "OR" => "NOR",
        "NOR" => "OR",
        "XOR" => "XNOR",
        "XNOR" => "XOR",
        _ => return None,
    };
    Some(format!("{flipped}{digits}"))
}

/// A tampered copy of `text`: one seeded gate instance has its cell
/// replaced by the complement of the same arity. The tamper is kept only
/// once the oracle shows it changes an output of `golden`, so a
/// `refuted` verdict on it is ground truth. Returns `None` if no tried
/// gate is observable.
pub fn tamper(text: &str, golden: &Design, rng: &mut Rng) -> Option<String> {
    let lines: Vec<&str> = text.lines().collect();
    let instance_lines: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| {
            let l = l.trim_start();
            l.contains(".Y(")
                && l.split_whitespace()
                    .next()
                    .and_then(complement_cell)
                    .is_some()
        })
        .map(|(i, _)| i)
        .collect();
    if instance_lines.is_empty() {
        return None;
    }
    for attempt in 0..32u64 {
        let at = instance_lines[rng.below(instance_lines.len())];
        let line = lines[at];
        let indent = &line[..line.len() - line.trim_start().len()];
        let body = line.trim_start();
        let (cell, rest) = body.split_once(' ')?;
        let flipped = complement_cell(cell)?;
        let mut out = String::with_capacity(text.len() + 2);
        for (i, l) in lines.iter().enumerate() {
            if i == at {
                out.push_str(indent);
                out.push_str(&flipped);
                out.push(' ');
                out.push_str(rest);
            } else {
                out.push_str(l);
            }
            out.push('\n');
        }
        let candidate = Design::parse(&out).ok()?;
        if equivalent_on_vectors(golden, &candidate, attempt ^ 0x7A3, 8).is_err() {
            return Some(out);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const HALF_ADDER: &str = "module ha (a, b, s, c);\n  input a, b;\n  output s, c;\n\n  XOR2 g0 (.A(a), .B(b), .Y(s));\n  AND2 g1 (.A(a), .B(b), .Y(c));\nendmodule\n";

    #[test]
    fn evaluates_and_compares() {
        let g = Design::parse(HALF_ADDER).expect("parses");
        let other = HALF_ADDER.replace("AND2", "NAND2");
        let o = Design::parse(&other).expect("parses");
        assert!(equivalent_on_vectors(&g, &g, 1, 2).is_ok());
        assert!(equivalent_on_vectors(&g, &o, 1, 2).is_err());
        // A double-negation rewrite stays equivalent.
        let rewired = HALF_ADDER.replace(
            "AND2 g1 (.A(a), .B(b), .Y(c));",
            "NAND2 g1 (.A(a), .B(b), .Y(n));\n  INV g2 (.A(n), .Y(c));",
        );
        let r = Design::parse(&rewired).expect("parses");
        assert!(equivalent_on_vectors(&g, &r, 3, 2).is_ok());
    }

    #[test]
    fn tamper_is_observable() {
        let g = Design::parse(HALF_ADDER).expect("parses");
        let t = tamper(HALF_ADDER, &g, &mut Rng::new(5)).expect("observable gate");
        let d = Design::parse(&t).expect("parses");
        assert!(equivalent_on_vectors(&g, &d, 9, 2).is_err());
    }
}
