//! A small reader for the server's NDJSON records, written apart from the
//! program's own codec so the output checks do not trust the code they
//! check. It splits one flat JSON object into top-level `(key, raw value)`
//! pairs; nested arrays and objects are kept as raw text.

/// The top-level fields of one record. String values are unquoted but
/// not unescaped (the fields the checks read hold no escapes).
pub struct Record<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Record<'a> {
    pub fn parse(line: &'a str) -> Result<Record<'a>, String> {
        let b = line.as_bytes();
        let mut i = skip_ws(b, 0);
        if b.get(i) != Some(&b'{') {
            return Err(format!("not an object: {line:?}"));
        }
        i = skip_ws(b, i + 1);
        let mut pairs = Vec::with_capacity(8);
        if b.get(i) == Some(&b'}') {
            return Ok(Record { pairs });
        }
        loop {
            let (key, next) = string(line, i)?;
            i = skip_ws(b, next);
            if b.get(i) != Some(&b':') {
                return Err(format!("expected ':' at {i} in {line:?}"));
            }
            i = skip_ws(b, i + 1);
            let (value, next) = match b.get(i) {
                Some(b'"') => string(line, i)?,
                Some(b'{') | Some(b'[') => nested(line, i)?,
                Some(_) => {
                    let end = i + b[i..]
                        .iter()
                        .position(|c| matches!(c, b',' | b'}' | b' '))
                        .ok_or_else(|| format!("unterminated value in {line:?}"))?;
                    (&line[i..end], end)
                }
                None => return Err(format!("truncated record {line:?}")),
            };
            pairs.push((key, value));
            i = skip_ws(b, next);
            match b.get(i) {
                Some(b',') => i = skip_ws(b, i + 1),
                Some(b'}') => return Ok(Record { pairs }),
                _ => return Err(format!("expected ',' or '}}' at {i} in {line:?}")),
            }
        }
    }

    pub fn str(&self, key: &str) -> Option<&'a str> {
        self.pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    pub fn num(&self, key: &str) -> Option<f64> {
        self.str(key).and_then(|v| v.parse().ok())
    }
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && b[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// The string starting at the quote at `i`: its raw contents and the
/// index after the closing quote.
fn string(line: &str, i: usize) -> Result<(&str, usize), String> {
    let b = line.as_bytes();
    if b.get(i) != Some(&b'"') {
        return Err(format!("expected a string at {i} in {line:?}"));
    }
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return Ok((&line[i + 1..j], j + 1)),
            _ => j += 1,
        }
    }
    Err(format!("unterminated string in {line:?}"))
}

/// A nested array or object starting at `i`, kept raw.
fn nested(line: &str, i: usize) -> Result<(&str, usize), String> {
    let b = line.as_bytes();
    let mut depth = 0usize;
    let mut j = i;
    while j < b.len() {
        match b[j] {
            b'"' => {
                j = string(line, j)?.1;
                continue;
            }
            b'{' | b'[' => depth += 1,
            b'}' | b']' => {
                depth -= 1;
                if depth == 0 {
                    return Ok((&line[i..=j], j + 1));
                }
            }
            _ => {}
        }
        j += 1;
    }
    Err(format!("unterminated value in {line:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_flat_records() {
        let r =
            Record::parse(r#"{"type":"admit","tenant":"t03","line":12,"job":11,"release":0.25}"#)
                .unwrap();
        assert_eq!(r.str("type"), Some("admit"));
        assert_eq!(r.str("tenant"), Some("t03"));
        assert_eq!(r.num("line"), Some(12.0));
        assert_eq!(r.num("release"), Some(0.25));
        assert_eq!(r.str("missing"), None);
    }

    #[test]
    fn keys_inside_strings_and_nested_values_do_not_confuse_it() {
        let r = Record::parse(
            r#"{"type":"reject","error":"unknown field \"line\": x","code":"unknown-field","by":{"a":[1,{"line":3}]},"line":4}"#,
        )
        .unwrap();
        assert_eq!(r.num("line"), Some(4.0));
        assert_eq!(r.str("code"), Some("unknown-field"));
        assert_eq!(r.str("by"), Some(r#"{"a":[1,{"line":3}]}"#));
        assert!(Record::parse("[1]").is_err());
        assert!(Record::parse(r#"{"a":"#).is_err());
        assert!(Record::parse("{}").unwrap().str("a").is_none());
    }
}
