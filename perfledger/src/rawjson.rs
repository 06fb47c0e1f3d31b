//! A borrowing JSON reader for response checks. Strings stay escaped and
//! every value keeps its source text, so artifacts compare byte for byte
//! and a large response is read in one linear scan. (`compiler::json`
//! unescapes every string into a new one; on a serve response that took
//! about 80 ms, longer than the request it checks.)

/// A JSON value borrowed from its source text.
#[derive(Debug, PartialEq)]
pub enum Raw<'a> {
    Obj(Vec<(&'a str, Value<'a>)>),
    Arr(Vec<Value<'a>>),
    /// A string, without its quotes and still escaped.
    Str(&'a str),
    /// A number, `true`, `false` or `null`, as written.
    Atom(&'a str),
}

/// A value and the exact source text it was read from.
#[derive(Debug, PartialEq)]
pub struct Value<'a> {
    pub text: &'a str,
    pub raw: Raw<'a>,
}

impl<'a> Value<'a> {
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        match &self.raw {
            Raw::Obj(members) => members.iter().find(|(k, _)| *k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&'a str> {
        match self.raw {
            Raw::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn u64(&self) -> Option<u64> {
        match self.raw {
            Raw::Atom(a) => a.parse().ok(),
            _ => None,
        }
    }

    pub fn arr(&self) -> Option<&[Value<'a>]> {
        match &self.raw {
            Raw::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Read one JSON document.
///
/// # Errors
/// The byte offset of the first malformed token.
pub fn parse(src: &str) -> Result<Value<'_>, String> {
    let mut r = Reader { src, pos: 0 };
    let v = r.value()?;
    r.ws();
    if r.pos != src.len() {
        return Err(format!("trailing bytes at {}", r.pos));
    }
    Ok(v)
}

struct Reader<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<Value<'a>, String> {
        self.ws();
        let start = self.pos;
        let raw = match self.peek() {
            Some(b'{') => self.object()?,
            Some(b'[') => self.array()?,
            Some(b'"') => Raw::Str(self.string()?),
            Some(_) => {
                let bytes = self.src.as_bytes();
                while self.pos < bytes.len()
                    && !matches!(
                        bytes[self.pos],
                        b',' | b']' | b'}' | b' ' | b'\n' | b'\t' | b'\r'
                    )
                {
                    self.pos += 1;
                }
                if self.pos == start {
                    return Err(format!("expected a value at byte {start}"));
                }
                Raw::Atom(&self.src[start..self.pos])
            }
            None => return Err("unexpected end of input".to_string()),
        };
        Ok(Value {
            text: &self.src[start..self.pos],
            raw,
        })
    }

    fn string(&mut self) -> Result<&'a str, String> {
        self.eat(b'"')?;
        let start = self.pos;
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(&self.src[start..self.pos - 1]);
                }
                b'\\' => self.pos += 2,
                _ => self.pos += 1,
            }
        }
        Err(format!("unterminated string at byte {start}"))
    }

    fn object(&mut self) -> Result<Raw<'a>, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Raw::Obj(members));
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            members.push((key, self.value()?));
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Raw::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
            self.ws();
        }
    }

    fn array(&mut self) -> Result<Raw<'a>, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Raw::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Raw::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_nested_values_and_keeps_their_text() {
        let doc = r#"{"op":"x","id":7,"units":[{"a":"q\"uo"}, [] ],"n":null}"#;
        let v = parse(doc).expect("valid");
        assert_eq!(v.get("op").and_then(Value::str), Some("x"));
        assert_eq!(v.get("id").and_then(Value::u64), Some(7));
        let units = v.get("units").and_then(Value::arr).expect("array");
        assert_eq!(units[0].text, r#"{"a":"q\"uo"}"#);
        assert_eq!(units[0].get("a").and_then(Value::str), Some(r#"q\"uo"#));
        assert_eq!(units[1].arr().map(<[Value]>::len), Some(0));
        assert_eq!(v.get("n").map(|n| n.text), Some("null"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", r#"{"a" 1}"#, "[1,", r#""open"#, "{} x"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }
}
