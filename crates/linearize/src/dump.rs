//! A plain-text dump of one checker window: the abstract states carried
//! into it and its operations, one per line. A window that stalls the
//! checker can be written out by a watchdog and replayed later as a
//! fixture with [`parse_window`] and
//! [`linearization_final_states`](crate::linearization_final_states).
//!
//! ```text
//! start bounded 16 4 8
//! start unbounded
//! op 10 15 PushRight(4) Okay
//! op 11 19 PopLeftN(3) Values(4,8)
//! op 12 13 PushLeftN(1,2) Full
//! ```
//!
//! `start` lines give the capacity (`unbounded` or `bounded <n>`) and
//! then the items left to right; `op` lines give the invocation and
//! response timestamps, the operation and its response.

use crate::history::Completed;
use crate::spec::{Batch, DequeOp, DequeRet, SeqDeque};

/// Renders `starts` and `ops` in the dump format.
pub fn format_window(starts: &[SeqDeque], ops: &[Completed]) -> String {
    let mut out = String::new();
    for s in starts {
        out.push_str("start");
        match s.capacity() {
            Some(c) => out.push_str(&format!(" bounded {c}")),
            None => out.push_str(" unbounded"),
        }
        for v in s.items() {
            out.push_str(&format!(" {v}"));
        }
        out.push('\n');
    }
    for c in ops {
        out.push_str(&format!(
            "op {} {} {} {}\n",
            c.invoke_ts,
            c.respond_ts,
            format_op(c.op),
            format_ret(c.ret)
        ));
    }
    out
}

/// Parses a dump written by [`format_window`] back into the carried
/// states and the window's operations.
pub fn parse_window(text: &str) -> Result<(Vec<SeqDeque>, Vec<Completed>), String> {
    let (mut starts, mut ops) = (Vec::new(), Vec::new());
    for (n, line) in text.lines().enumerate() {
        let bad = |what: &str| format!("line {}: {what}: {line:?}", n + 1);
        let mut words = line.split_whitespace();
        match words.next() {
            None => {}
            Some("start") => {
                let mut s = match words.next() {
                    Some("unbounded") => SeqDeque::unbounded(),
                    Some("bounded") => SeqDeque::bounded(
                        words.next().and_then(|w| w.parse().ok()).ok_or_else(|| bad("capacity"))?,
                    ),
                    _ => return Err(bad("expected `bounded <n>` or `unbounded`")),
                };
                for w in words {
                    let v = w.parse().map_err(|_| bad("item"))?;
                    if s.apply(DequeOp::PushRight(v)) != DequeRet::Okay {
                        return Err(bad("more items than the capacity"));
                    }
                }
                starts.push(s);
            }
            Some("op") => {
                let mut ts = || words.next().and_then(|w| w.parse().ok());
                let (invoke_ts, respond_ts) = ts().zip(ts()).ok_or_else(|| bad("timestamps"))?;
                let op = words.next().and_then(parse_op).ok_or_else(|| bad("operation"))?;
                let ret = words.next().and_then(parse_ret).ok_or_else(|| bad("response"))?;
                ops.push(Completed { invoke_ts, respond_ts, op, ret });
            }
            Some(_) => return Err(bad("expected `start` or `op`")),
        }
    }
    Ok((starts, ops))
}

fn format_op(op: DequeOp) -> String {
    match op {
        DequeOp::PushRight(v) => format!("PushRight({v})"),
        DequeOp::PushLeft(v) => format!("PushLeft({v})"),
        DequeOp::PopRight => "PopRight".into(),
        DequeOp::PopLeft => "PopLeft".into(),
        DequeOp::PushRightN(b) => format!("PushRightN({})", join(b.as_slice())),
        DequeOp::PushLeftN(b) => format!("PushLeftN({})", join(b.as_slice())),
        DequeOp::PopRightN(k) => format!("PopRightN({k})"),
        DequeOp::PopLeftN(k) => format!("PopLeftN({k})"),
    }
}

fn format_ret(ret: DequeRet) -> String {
    match ret {
        DequeRet::Okay => "Okay".into(),
        DequeRet::Full => "Full".into(),
        DequeRet::Empty => "Empty".into(),
        DequeRet::Value(v) => format!("Value({v})"),
        DequeRet::Values(b) => format!("Values({})", join(b.as_slice())),
    }
}

fn join(vals: &[u64]) -> String {
    vals.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
}

/// Splits `Name(a,b)` into `("Name", Some([a, b]))` and `Name` into
/// `("Name", None)`.
fn split_call(word: &str) -> Option<(&str, Option<Vec<u64>>)> {
    let Some((name, rest)) = word.split_once('(') else {
        return Some((word, None));
    };
    let args = rest.strip_suffix(')')?;
    let vals = if args.is_empty() {
        Vec::new()
    } else {
        args.split(',').map(|a| a.parse().ok()).collect::<Option<Vec<u64>>>()?
    };
    Some((name, Some(vals)))
}

fn one(vals: &[u64]) -> Option<u64> {
    match vals {
        [v] => Some(*v),
        _ => None,
    }
}

fn batch(vals: &[u64]) -> Option<Batch> {
    (vals.len() <= dcas_deque::MAX_BATCH).then(|| Batch::new(vals))
}

fn parse_op(word: &str) -> Option<DequeOp> {
    Some(match split_call(word)? {
        ("PushRight", Some(v)) => DequeOp::PushRight(one(&v)?),
        ("PushLeft", Some(v)) => DequeOp::PushLeft(one(&v)?),
        ("PopRight", None) => DequeOp::PopRight,
        ("PopLeft", None) => DequeOp::PopLeft,
        ("PushRightN", Some(v)) => DequeOp::PushRightN(batch(&v)?),
        ("PushLeftN", Some(v)) => DequeOp::PushLeftN(batch(&v)?),
        ("PopRightN", Some(v)) => DequeOp::PopRightN(one(&v)?.try_into().ok()?),
        ("PopLeftN", Some(v)) => DequeOp::PopLeftN(one(&v)?.try_into().ok()?),
        _ => return None,
    })
}

fn parse_ret(word: &str) -> Option<DequeRet> {
    Some(match split_call(word)? {
        ("Okay", None) => DequeRet::Okay,
        ("Full", None) => DequeRet::Full,
        ("Empty", None) => DequeRet::Empty,
        ("Value", Some(v)) => DequeRet::Value(one(&v)?),
        ("Values", Some(v)) => DequeRet::Values(batch(&v)?),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_and_response_round_trips() {
        let mut bounded = SeqDeque::bounded(4);
        bounded.apply(DequeOp::PushRight(8));
        bounded.apply(DequeOp::PushRight(12));
        let starts = vec![bounded, SeqDeque::unbounded()];
        let b = Batch::new(&[4, 8]);
        let ops: Vec<Completed> = [
            (DequeOp::PushRight(4), DequeRet::Okay),
            (DequeOp::PushLeft(8), DequeRet::Full),
            (DequeOp::PopRight, DequeRet::Value(4)),
            (DequeOp::PopLeft, DequeRet::Empty),
            (DequeOp::PushRightN(b), DequeRet::Okay),
            (DequeOp::PushLeftN(b), DequeRet::Full),
            (DequeOp::PopRightN(2), DequeRet::Values(b)),
            (DequeOp::PopLeftN(3), DequeRet::Values(Batch::new(&[]))),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, (op, ret))| Completed { invoke_ts: i as u64, respond_ts: 10 + i as u64, op, ret })
        .collect();
        let text = format_window(&starts, &ops);
        let (starts2, ops2) = parse_window(&text).unwrap();
        assert_eq!(starts2, starts);
        assert_eq!(ops2.len(), ops.len());
        for (a, b) in ops.iter().zip(&ops2) {
            assert_eq!((a.invoke_ts, a.respond_ts, a.op, a.ret), (b.invoke_ts, b.respond_ts, b.op, b.ret));
        }
        assert!(parse_window("op 1 2 PopMiddle Okay").is_err());
        assert!(parse_window("start bounded 1 4 8").is_err());
    }
}
