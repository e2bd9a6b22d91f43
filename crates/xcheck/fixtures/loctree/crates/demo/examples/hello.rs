fn main() {
    println!("hi"); // a trailing comment keeps the line code
}
