//! Integration test doc.

#[test]
fn greets() {
    // checks nothing but the count
    assert!(true);
}
